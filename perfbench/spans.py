"""In-memory span recording and self-time arithmetic.

A span is one call into a layer: its name, start and end (host
``perf_counter`` seconds), the span that was open on the same thread
when it started (its parent), the thread it ran on, and the counts the
wrapped call returned. Spans are kept in memory and written out once,
when the traced process ends.

Self time is a span's duration minus the union of its children's
intervals. Children are only ever spans of the *same* thread: a trace
segment decoded on the ``perf.stream`` producer thread runs while the
consumer is inside the core model, but it is not subtracted from the
core's time — it is its own thread's work.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One recorded call into a layer."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1].id if stack else None,
            thread=threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # Wrappers close spans in LIFO order on the thread that opened them.
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.__dict__ for span in self.spans], handle)


def read_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**entry) for entry in json.load(handle)]


def wrap_call(recorder: Recorder, name: str, fn, count=None):
    """``fn`` inside a span; ``count(result, args, kwargs)`` -> counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if count is not None:
            span.counts = count(result, args, kwargs)
        return result

    return wrapper


def wrap_iter(recorder: Recorder, name: str, fn, count=None):
    """A generator function whose every ``next`` is one span.

    The work of a generator happens while it is iterated, not when it
    is called, so each step is timed on whichever thread pulls it.
    ``count(item, args, kwargs)`` gives the counts of one yielded item.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        try:
            while True:
                span = recorder.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.close(span)
                if count is not None:
                    span.counts = count(item, args, kwargs)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    return wrapper


def rebind(module_prefix: str, owner, attribute: str, replacement) -> int:
    """Replace ``owner.attribute`` everywhere a caller looks it up.

    A function imported by name (``from m import f``) is a separate
    binding in the importing module, so replacing it on its defining
    module alone misses that caller. Every loaded module under
    ``module_prefix`` whose attribute is the original object gets the
    replacement too. Returns the number of bindings replaced; a missing
    attribute raises, so a renamed entry point fails loudly.
    """
    original = getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    replaced = 1
    if isinstance(owner, type):
        return replaced
    for name, module in list(sys.modules.items()):
        if module is None or module is owner:
            continue
        if name != module_prefix and not name.startswith(module_prefix + "."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                replaced += 1
    return replaced


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its same-thread children."""
    by_id = {span.id: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None or parent.thread != span.thread:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.id, []).append((start, end))
    return {
        span.id: max(0.0, span.duration
                     - _union_length(children.get(span.id, [])))
        for span in spans
    }
