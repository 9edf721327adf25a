"""Self-time arithmetic, span recording and wrapper installation."""

from __future__ import annotations

import sys
import threading
import types

import pytest

from perfbench.spans import (
    Recorder, Span, rebind, self_times, wrap_call, wrap_iter,
)


def span(id, start, end, parent=None, thread=1, name="x"):
    return Span(id=id, name=name, start=start, end=end, parent=parent,
                thread=thread)


def test_nested_children_are_subtracted_once():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 3.0, parent=1),
        span(3, 4.0, 6.0, parent=1),
        span(4, 4.5, 5.0, parent=3),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(6.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.5)
    assert own[4] == pytest.approx(0.5)
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_count_their_union():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 5.0, parent=1),
        span(3, 3.0, 7.0, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(4.0)


def test_spans_on_another_thread_are_not_subtracted():
    spans = [
        span(1, 0.0, 10.0, thread=1),
        # A producer-thread span overlapping the consumer's span, whether
        # or not it names a parent, stays on its own thread.
        span(2, 2.0, 8.0, thread=2),
        span(3, 3.0, 4.0, parent=1, thread=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0)
    assert own[2] == pytest.approx(6.0)
    assert own[3] == pytest.approx(1.0)


def test_child_outside_its_parent_is_clipped():
    spans = [span(1, 0.0, 2.0), span(2, 1.0, 3.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_recorder_parents_come_from_the_same_thread():
    recorder = Recorder()
    outer = recorder.open("outer")
    seen = {}

    def other():
        inner = recorder.open("other")
        seen["parent"] = inner.parent
        recorder.close(inner)

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    child = recorder.open("child")
    recorder.close(child)
    recorder.close(outer)
    assert seen["parent"] is None
    assert child.parent == outer.id
    assert {s.name for s in recorder.spans} == {"outer", "other", "child"}


def test_wrap_call_counts_what_the_call_returns():
    recorder = Recorder()
    wrapped = wrap_call(recorder, "layer", lambda n: n * 2,
                        lambda result, args, kwargs: {"items": result})
    assert wrapped(21) == 42
    (recorded,) = recorder.spans
    assert recorded.name == "layer"
    assert recorded.counts == {"items": 42}
    assert recorded.end >= recorded.start


def test_wrap_call_records_a_span_when_the_call_raises():
    recorder = Recorder()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        wrap_call(recorder, "layer", fail)()
    assert [s.name for s in recorder.spans] == ["layer"]


def test_wrap_iter_times_every_step():
    recorder = Recorder()
    closed = []

    def produce(n):
        try:
            yield from range(n)
        finally:
            closed.append(True)

    wrapped = wrap_iter(recorder, "step", produce,
                        lambda item, args, kwargs: {"value": item})
    assert list(wrapped(3)) == [0, 1, 2]
    # Three items plus the step that found the end.
    assert len(recorder.spans) == 4
    assert [s.counts.get("value") for s in recorder.spans] == [0, 1, 2, None]
    assert closed == [True]


def test_rebind_replaces_by_name_imports():
    owner = types.ModuleType("perfbench_fake.owner")
    caller = types.ModuleType("perfbench_fake.caller")
    outsider = types.ModuleType("elsewhere")

    def original():
        return "original"

    owner.entry = original
    caller.alias = original
    outsider.entry = original
    modules = {m.__name__: m for m in (owner, caller, outsider)}
    sys.modules.update(modules)
    try:
        replaced = rebind("perfbench_fake", owner, "entry", lambda: "new")
    finally:
        for name in modules:
            del sys.modules[name]
    assert replaced == 2
    assert owner.entry() == caller.alias() == "new"
    assert outsider.entry is original


def test_rebind_fails_loudly_on_a_missing_entry_point():
    owner = types.ModuleType("perfbench_fake.owner")
    with pytest.raises(AttributeError):
        rebind("perfbench_fake", owner, "renamed", lambda: None)
