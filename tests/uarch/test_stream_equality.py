"""Streamed simulation must be bit-identical to the monolithic path.

``Core.simulate_stream``, ``simulate_batched_stream``, the segmented
interpreter (``Machine.run_segments``), the segmented synthetic
generator and the segment-aware ``branch_stream`` all promise the same
contract: feeding a trace in bounded segments — any segment size, any
config — produces exactly the result of the monolithic pass over the
concatenated trace. This matrix pins the whole serialised
:class:`SimResult` (intervals included) across segment sizes from the
degenerate 1 to larger-than-trace, every predictor kind, the paper's
FXU/BTAC design points, and the pipelined (producer-thread) wrapper.
"""

import numpy as np
import pytest

from repro.bpred.replay import branch_stream
from repro.engine.serialize import result_to_dict
from repro.errors import SimulationError
from repro.isa.interpreter import Machine
from repro.isa.memory import Memory
from repro.isa.program import ProgramBuilder
from repro.isa.trace import F_LOAD, Trace, TraceEvent
from repro.uarch.batched import simulate_batched, simulate_batched_stream
from repro.uarch.config import PREDICTOR_KINDS, BtacConfig, power5
from repro.uarch.core import Core
from repro.uarch.synthetic import (
    MixProfile,
    generate_trace,
    generate_trace_segments,
)

#: Degenerate, small, co-prime-with-the-trace, and larger-than-trace.
SEGMENT_SIZES = (1, 64, 997, 10**9)

#: The design points the paper's figures sweep (subset of the golden
#: matrix — streaming equality is orthogonal to the config grid).
CONFIGS = (
    ("fxu2", power5()),
    ("fxu4", power5().with_fxus(4)),
    ("fxu3-btac", power5().with_fxus(3).with_btac()),
)

def _assert_events_match(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        for name in TraceEvent.__slots__:
            assert getattr(a, name) == getattr(b, name), name


_memo: dict = {}


def _synthetic(length=6_000, seed=91) -> Trace:
    key = (length, seed)
    if key not in _memo:
        _memo[key] = generate_trace(length, MixProfile(), seed=seed)
    return _memo[key]


def _stream(trace, size, config, interval_size=None):
    return result_to_dict(
        Core(config).simulate_stream(
            trace.segments(size), interval_size=interval_size
        )
    )


def _mono(trace, config, interval_size=None):
    return result_to_dict(
        Core(config).simulate(trace, interval_size=interval_size)
    )


class TestSimulateStreamEquality:
    @pytest.mark.parametrize("size", SEGMENT_SIZES)
    def test_segment_sizes(self, size):
        trace = _synthetic()
        assert _stream(trace, size, power5()) == _mono(trace, power5())

    @pytest.mark.parametrize("label,config", CONFIGS,
                             ids=[c[0] for c in CONFIGS])
    def test_design_points(self, label, config):
        trace = _synthetic()
        assert _stream(trace, 997, config) == _mono(trace, config)

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_predictor_kinds(self, kind):
        trace = _synthetic()
        config = power5().with_btac().with_predictor(
            kind, table_bits=10, history_bits=8
        )
        assert _stream(trace, 499, config) == _mono(trace, config)

    @pytest.mark.parametrize("size", (1, 700, 10**9))
    def test_intervals_cross_segment_boundaries(self, size):
        """Interval accounting is global: a 1000-event interval spans
        many 700-event segments and must land on the same boundaries."""
        trace = _synthetic()
        config = power5().with_btac()
        streamed = _stream(trace, size, config, interval_size=1_000)
        golden = _mono(trace, config, interval_size=1_000)
        assert streamed["intervals"] == golden["intervals"]
        assert streamed == golden

    def test_event_list_segments_convert_on_the_fly(self):
        trace = _synthetic()
        chunks = [
            view.to_events() for view in trace.segments(800)
        ]
        streamed = result_to_dict(Core(power5()).simulate_stream(chunks))
        assert streamed == _mono(trace, power5())

    def test_empty_segments_are_skipped(self):
        trace = _synthetic()
        def with_gaps():
            for view in trace.segments(997):
                yield Trace()
                yield view
            yield Trace()
        streamed = result_to_dict(
            Core(power5()).simulate_stream(with_gaps())
        )
        assert streamed == _mono(trace, power5())

    def test_empty_stream_raises(self):
        with pytest.raises(SimulationError):
            Core(power5()).simulate_stream(iter(()))

    def test_pipelined_wrapper_is_transparent(self):
        from repro.perf.stream import pipelined

        trace = _synthetic()
        streamed = result_to_dict(
            Core(power5()).simulate_stream(
                pipelined(trace.segments(997))
            )
        )
        assert streamed == _mono(trace, power5())


class TestBatchedStreamEquality:
    """``simulate_batched_stream`` == ``simulate_batched`` == scalar."""

    def _assert_matches(self, trace, configs, size, interval_size=None):
        streamed = simulate_batched_stream(
            trace.segments(size), configs, interval_size=interval_size
        )
        golden = simulate_batched(
            trace, configs, interval_size=interval_size
        )
        assert (
            [result_to_dict(r) for r in streamed.results]
            == [result_to_dict(r) for r in golden.results]
        )
        return streamed

    @pytest.mark.parametrize("size", (1, 977, 10**9))
    def test_shared_frontend_group(self, size):
        trace = _synthetic()
        configs = [power5().with_fxus(f) for f in (2, 3, 4)]
        outcome = self._assert_matches(trace, configs, size)
        assert outcome.vectorized == 3

    def test_mixed_vectorized_and_singleton(self):
        """A perceptron point joins the batch as a one-config group and
        walks every segment with its own carried frontend state."""
        trace = _synthetic()
        configs = [
            power5().with_fxus(2),
            power5().with_fxus(4),
            power5().with_predictor(
                "perceptron", table_bits=10, history_bits=8
            ),
        ]
        outcome = self._assert_matches(trace, configs, 977)
        assert outcome.batched == [True] * 3

    def test_intervals(self):
        trace = _synthetic()
        configs = [power5().with_fxus(f) for f in (2, 4)]
        self._assert_matches(trace, configs, 700, interval_size=1_000)

    def test_empty_stream_raises(self):
        with pytest.raises(SimulationError):
            simulate_batched_stream(iter(()), [power5()])


def _restaticked(trace, size):
    """``trace`` in segments that each carry their own static table,
    interned in a different (rotated) order, so every segment numbers
    the same instructions differently."""
    table = trace.static
    entries = [
        (table.ops[s], table.dsts[s], table.srcs[s])
        for s in range(len(table))
    ]
    for number, view in enumerate(trace.segments(size)):
        shift = number % len(entries)
        segment = Trace()
        for entry in entries[shift:] + entries[:shift]:
            segment.static.intern(*entry)
        segment.extend(view)
        yield segment


class TestBatchedStreamFrontends:
    """Carried native and Python frontend state == one monolithic walk."""

    def _assert_scalar(self, segments, trace, configs, interval_size=None):
        streamed = simulate_batched_stream(
            segments, configs, interval_size=interval_size
        )
        golden = [
            result_to_dict(Core(config).simulate(trace, interval_size))
            for config in configs
        ]
        assert [result_to_dict(r) for r in streamed.results] == golden
        return streamed

    @pytest.mark.parametrize("size", (1, 700, 1_000, 10**9))
    def test_intervals_split_across_segments(self, size, native):
        trace = _synthetic()
        configs = [power5().with_btac(), power5().with_btac().with_fxus(4)]
        outcome = self._assert_scalar(
            trace.segments(size), trace, configs, interval_size=1_000
        )
        assert outcome.native_frontend == native
        assert outcome.native == native

    @pytest.mark.parametrize("size", (1, 700, 1_000, 10**9))
    def test_group_of_one(self, size, native):
        """A group of one streams through the same carried walk and
        replay, and matches the scalar core itself."""
        trace = _synthetic()
        outcome = self._assert_scalar(
            trace.segments(size), trace, [power5().with_btac()],
            interval_size=1_000,
        )
        assert outcome.batched == [True]
        assert outcome.native_frontend == native
        assert outcome.native == native

    def test_segments_with_different_static_tables(self, native):
        trace = _synthetic()
        configs = [power5().with_fxus(f) for f in (2, 3, 4)]
        outcome = self._assert_scalar(
            _restaticked(trace, 997), trace, configs, interval_size=500
        )
        assert outcome.vectorized == len(configs)
        assert outcome.native_frontend == native

    def test_overflowing_segment_moves_the_walk_to_python(self, native):
        """The native walk carries its state into the Python walk at
        the first segment holding an access beyond int64 bytes."""
        trace = generate_trace(6_000, MixProfile(), seed=92)
        flags = np.frombuffer(trace.flags, dtype=np.uint8)
        loads = np.flatnonzero(flags & F_LOAD)
        trace.address[int(loads[loads > 4_000][0])] = 1 << 61
        configs = [
            power5().with_btac(BtacConfig(entries=2)),
            power5().with_btac(BtacConfig(entries=2)).with_fxus(4),
        ]
        outcome = self._assert_scalar(
            trace.segments(997), trace, configs, interval_size=800
        )
        assert not outcome.native_frontend
        assert outcome.native == native


def _sum_loop_program(n):
    builder = ProgramBuilder()
    builder.li(3, 0)
    builder.li(4, 1)
    builder.li(5, n)
    builder.label("loop")
    builder.add(3, 3, 4)
    builder.addi(4, 4, 1)
    builder.cmp(0, 4, 5)
    builder.bc(0, 1, "loop", want=False)
    builder.halt()
    return builder.build()


class TestInterpreterSegmentEquality:
    @pytest.mark.parametrize("size", (1, 7, 997, 10**9))
    def test_concatenated_segments_match_run(self, size):
        program = _sum_loop_program(300)
        golden = Trace()
        Machine(program, Memory(4)).run(trace=golden)

        machine = Machine(program, Memory(4))
        streamed = []
        for segment in machine.run_segments(size):
            assert len(segment) <= size
            streamed.extend(segment.to_events())
        assert machine.halted
        assert machine.steps == len(golden)
        _assert_events_match(streamed, golden.to_events())

    def test_architected_state_matches(self):
        program = _sum_loop_program(50)
        golden = Machine(program, Memory(4))
        golden.run()

        machine = Machine(program, Memory(4))
        for _ in machine.run_segments(16):
            pass
        assert machine.registers.read(3) == golden.registers.read(3)
        assert machine.pc == golden.pc
        assert machine.steps == golden.steps

    def test_segments_simulate_identically(self):
        program = _sum_loop_program(200)
        golden = Trace()
        Machine(program, Memory(4)).run(trace=golden)
        streamed = result_to_dict(
            Core(power5()).simulate_stream(
                Machine(program, Memory(4)).run_segments(64)
            )
        )
        assert streamed == _mono(golden, power5())


class TestSyntheticSegmentEquality:
    @pytest.mark.parametrize("size", (1, 13, 4_096, 10**9))
    def test_concatenated_segments_match_monolithic(self, size):
        golden = generate_trace(5_000, MixProfile(), seed=23)
        streamed = [
            event
            for segment in generate_trace_segments(
                5_000, MixProfile(), seed=23, segment_events=size
            )
            for event in segment.to_events()
        ]
        _assert_events_match(streamed, golden.to_events())

    def test_rejects_bad_segment_size(self):
        with pytest.raises(SimulationError):
            list(generate_trace_segments(100, segment_events=0))


class TestBranchStreamSegments:
    def test_segment_forms_pack_identically(self):
        trace = _synthetic()
        golden = branch_stream(trace)
        assert branch_stream(trace.segments(997)) == golden
        assert branch_stream(list(trace.segments(64))) == golden
        assert branch_stream(trace.to_events()) == golden
        assert branch_stream(
            [view.to_events() for view in trace.segments(800)]
        ) == golden
