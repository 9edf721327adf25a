"""A gprof-like, deterministic function profiler.

Used for Figure 1's function-wise breakout: run an application
callable under the profiler and report the top functions by their
*self* share, the way the paper used gprof on the BioPerf binaries.

The cost measure is executed source lines, counted per function under
``sys.settrace``, not host time: the same call on the same inputs
yields the same counts on every run and every host, so Figure 1 prints
the same bytes every time and can be cached like any simulation
result. Line tables change between Python versions, so counts compare
only within one minor version.

Only lines of functions defined inside the ``repro`` package are
counted. Library code is not traced at all, and comprehensions,
generator expressions and lambdas fold into the function that runs
them, which keeps the output at the granularity of a C-level gprof
profile of the original tools. Module bodies executed by an import
during the run are not counted.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.errors import WorkloadError


@dataclass(frozen=True)
class FunctionProfile:
    """Executed-line and call counts for one function."""

    name: str
    lines: int
    calls: int

    def share_of(self, total: int) -> float:
        """This function's share of ``total`` executed lines."""
        return self.lines / total if total > 0 else 0.0


@dataclass
class ProfileReport:
    """The result of one profiled run, functions ranked by lines."""

    total_lines: int
    functions: list[FunctionProfile]

    def top(self, count: int = 4) -> list[FunctionProfile]:
        """The ``count`` functions that executed the most lines."""
        return self.functions[:count]

    def share(self, name: str) -> float:
        """Line share of the named function (0 when absent)."""
        for function in self.functions:
            if function.name == name:
                return function.share_of(self.total_lines)
        return 0.0

    def format(self, count: int = 6) -> str:
        """gprof-flat-profile-like text rendering."""
        lines = [f"{'% lines':>7}  {'lines':>10}  {'calls':>8}  name"]
        for function in self.top(count):
            lines.append(
                f"{100 * function.share_of(self.total_lines):6.1f}%  "
                f"{function.lines:10d}  {function.calls:8d}  "
                f"{function.name}"
            )
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """JSON form: ``[name, lines, calls]`` per function, in rank order."""
        return {
            "functions": [
                [function.name, function.lines, function.calls]
                for function in self.functions
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ProfileReport":
        functions = [
            FunctionProfile(name=str(name), lines=int(lines),
                            calls=int(calls))
            for name, lines, calls in payload["functions"]
        ]
        return cls(
            total_lines=sum(function.lines for function in functions),
            functions=functions,
        )


class Profiler:
    """Single-use profiler counting executed lines per function."""

    def __init__(self, package_filter: str = "repro") -> None:
        self._filter = package_filter
        self._lines: dict[str, int] = {}
        self._calls: dict[str, int] = {}
        self._tracers: dict[str, object] = {}
        self._used = False

    def _tracer(self, name: str):
        """The local trace function counting one function's lines."""
        tracer = self._tracers.get(name)
        if tracer is None:
            lines = self._lines
            lines.setdefault(name, 0)

            def tracer(_frame, event, _arg):
                if event == "line":
                    lines[name] += 1
                return tracer

            self._tracers[name] = tracer
        return tracer

    def _in_package(self, frame) -> bool:
        return frame.f_globals.get("__name__", "").startswith(self._filter)

    def _on_call(self, frame, _event, _arg):
        """Global trace function: pick who a new frame's lines count for."""
        name = frame.f_code.co_name
        if not self._in_package(frame) or name == "<module>":
            return None
        if not name.startswith("<"):
            self._calls[name] = self._calls.get(name, 0) + 1
            return self._tracer(name)
        # A comprehension, generator expression or lambda: its lines
        # count for the nearest package function up the stack.
        caller = frame.f_back
        while caller is not None:
            name = caller.f_code.co_name
            if self._in_package(caller) and not name.startswith("<"):
                return self._tracer(name)
            caller = caller.f_back
        return None

    def run(self, callable_, *args, **kwargs):
        """Profile one call; returns ``(value, ProfileReport)``.

        Any trace function installed before the call (a debugger, a
        coverage tool) is restored afterwards.
        """
        if self._used:
            raise WorkloadError("profiler already used; create a fresh one")
        self._used = True
        previous = sys.gettrace()
        sys.settrace(self._on_call)
        try:
            value = callable_(*args, **kwargs)
        finally:
            sys.settrace(previous)
        return value, self.report()

    def report(self) -> ProfileReport:
        """Build the report: most lines first, ties by name."""
        functions = sorted(
            (
                FunctionProfile(
                    name=name, lines=lines, calls=self._calls.get(name, 0)
                )
                for name, lines in self._lines.items()
            ),
            key=lambda function: (-function.lines, function.name),
        )
        return ProfileReport(
            total_lines=sum(function.lines for function in functions),
            functions=functions,
        )


def profile_call(callable_, *args, **kwargs):
    """One-shot convenience wrapper around :class:`Profiler`."""
    return Profiler().run(callable_, *args, **kwargs)
