"""Engine telemetry: per-point wall time, cache traffic, simulated MIPS
and named event counters.

Telemetry is collected out-of-band from the experiment data so that a
parallel run renders byte-identically to a serial one: wall times go in
the telemetry report (tables / JSON summary), never in
:meth:`ExperimentResult.render` output.

Every other engine event is a counter with a dotted ``<area>.<event>``
name, added by :meth:`EngineStats.count` where the event happens (the
names are listed in ``docs/engine.md``). Counters are summed on merge,
written as one ``counters`` block in the JSON (schema 10), rendered as
one "Engine counters" table and journaled per sweep as one
``counters`` record (:mod:`repro.engine.journal`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.cache import CacheCounters
from repro.perf.report import Table

#: Where a point's result came from.
SOURCE_MEMO = "memo"
SOURCE_DISK = "disk"
SOURCE_SIMULATED = "simulated"
SOURCE_JOURNAL = "journal"  # replayed from a run journal during resume

#: How a point failed (``PointFailure.kind``).
FAILURE_EXCEPTION = "exception"  # the worker raised
FAILURE_CRASH = "crash"          # the worker process died (BrokenProcessPool)
FAILURE_TIMEOUT = "timeout"      # the point exceeded its deadline


@dataclass
class PointFailure:
    """One design point that failed after exhausting its retries."""

    app: str
    variant: str
    config_digest: str  # short form
    kind: str  # exception | crash | timeout
    error_type: str
    message: str
    traceback: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "variant": self.variant,
            "config": self.config_digest,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }


@dataclass
class PointRecord:
    """One design point's execution record."""

    app: str
    variant: str
    config_digest: str  # short form
    wall_seconds: float
    instructions: int
    source: str  # memo | disk | simulated

    @property
    def mips(self) -> float:
        """Simulated megainstructions per second of wall time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instructions / self.wall_seconds / 1e6

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "variant": self.variant,
            "config": self.config_digest,
            "wall_seconds": self.wall_seconds,
            "instructions": self.instructions,
            "mips": self.mips,
            "source": self.source,
        }


@dataclass
class EngineStats:
    """Aggregated engine telemetry (mergeable across worker processes)."""

    points: list[PointRecord] = field(default_factory=list)
    failures: list[PointFailure] = field(default_factory=list)
    memo_hits: int = 0
    cache: CacheCounters = field(default_factory=CacheCounters)
    jobs: int = 1
    #: Execution-context caveats (for instance "timeouts not enforced
    #: on the serial path"), deduplicated, preserved across merges.
    notes: list[str] = field(default_factory=list)
    #: Named event counters (module docstring), summed on merge.
    counters: dict[str, int] = field(default_factory=dict)

    def record(self, point: PointRecord) -> None:
        self.points.append(point)

    def record_failure(self, failure: PointFailure) -> None:
        self.failures.append(failure)

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def note(self, message: str) -> None:
        """Attach a caveat once (repeats are dropped)."""
        if message not in self.notes:
            self.notes.append(message)

    def merge(self, other: "EngineStats") -> None:
        """Fold a worker's telemetry into this one."""
        self.points.extend(other.points)
        self.failures.extend(other.failures)
        self.memo_hits += other.memo_hits
        self.cache.merge(other.cache)
        for name, value in other.counters.items():
            self.count(name, value)
        for message in other.notes:
            self.note(message)

    @property
    def total_wall_seconds(self) -> float:
        return sum(point.wall_seconds for point in self.points)

    @property
    def total_instructions(self) -> int:
        return sum(point.instructions for point in self.points)

    @property
    def aggregate_mips(self) -> float:
        wall = self.total_wall_seconds
        if wall <= 0.0:
            return 0.0
        return self.total_instructions / wall / 1e6

    def to_dict(self) -> dict:
        return {
            "schema": 10,
            "jobs": self.jobs,
            "points": [point.to_dict() for point in self.points],
            "failures": [failure.to_dict() for failure in self.failures],
            "cache": {**self.cache.to_dict(), "memo_hits": self.memo_hits},
            "notes": list(self.notes),
            "counters": dict(self.counters),
            "totals": {
                "points": len(self.points),
                "failures": len(self.failures),
                "wall_seconds": self.total_wall_seconds,
                "instructions": self.total_instructions,
                "mips": self.aggregate_mips,
            },
        }

    def write_json(self, path: str | Path) -> None:
        """Machine-readable summary for benchmark/CI harnesses."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def render(self, per_point: bool = False) -> str:
        """Human-readable telemetry report."""
        summary = Table(
            "Engine telemetry",
            ["Points", "Simulated", "Disk hits", "Memo hits", "Failures",
             "Wall (s)", "Sim MIPS"],
        )
        simulated = sum(
            1 for point in self.points if point.source == SOURCE_SIMULATED
        )
        disk = sum(1 for point in self.points if point.source == SOURCE_DISK)
        summary.add_row(
            len(self.points),
            simulated,
            disk,
            self.memo_hits,
            len(self.failures),
            f"{self.total_wall_seconds:.2f}",
            f"{self.aggregate_mips:.2f}",
        )
        blocks = [summary.render()]
        counted = [
            (name, value) for name, value in sorted(self.counters.items())
            if value
        ]
        if counted:
            counters = Table("Engine counters", ["Counter", "Value"])
            for name, value in counted:
                counters.add_row(name, value)
            blocks.append(counters.render())
        if self.notes:
            blocks.append(
                "\n".join(f"note: {message}" for message in self.notes)
            )
        if self.failures:
            failed = Table(
                "Failed design points",
                ["App", "Variant", "Config", "Kind", "Error", "Attempts"],
            )
            for failure in self.failures:
                failed.add_row(
                    failure.app,
                    failure.variant,
                    failure.config_digest,
                    failure.kind,
                    failure.error_type,
                    failure.attempts,
                )
            blocks.append(failed.render())
        if per_point and self.points:
            table = Table(
                "Per-point engine telemetry",
                ["App", "Variant", "Config", "Source", "Wall (s)",
                 "Instructions", "Sim MIPS"],
            )
            for point in self.points:
                table.add_row(
                    point.app,
                    point.variant,
                    point.config_digest,
                    point.source,
                    f"{point.wall_seconds:.3f}",
                    point.instructions,
                    f"{point.mips:.2f}",
                )
            blocks.append(table.render())
        return "\n\n".join(blocks)
