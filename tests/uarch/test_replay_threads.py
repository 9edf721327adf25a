"""The threaded native replay gives the one-thread answer, exactly.

One replay call spreads a trace's (frontend group, config) items over
several threads, each with its own bounded scratch. Every item writes
only its own output rows, so the thread count must never show in a
result: these tests compare whole serialised :class:`SimResult`\\ s,
interval records included, for one thread against several, and pin
the per-config lane-overflow path (retry in a larger ring, then the
Python replay) against ``REPRO_NATIVE=off``. The usage lanes are rings
recycled as dispatch advances: a thread's scratch depends on the
configs only, and recycled or out-of-window cells must never show in
a result.
"""

import random
import threading
from dataclasses import replace

import pytest

from repro.engine.serialize import result_to_dict
from repro.isa.instructions import Instruction, Op
from repro.isa.trace import Trace
from repro.kernels.runtime import ALL_VARIANTS
from repro.uarch import batched
from repro.uarch.config import BtacConfig, power5
from repro.uarch.synthetic import MixProfile, generate_trace
from tests.uarch.test_golden_equality import CONFIGS, KERNELS, _traces


@pytest.fixture
def replay(monkeypatch):
    """Run ``simulate_batched`` natively on a given thread budget and
    check the threads it started: one per config up to the budget,
    none left running after the call."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    if batched._native_kernel() is None:
        pytest.skip("no C compiler for the native kernels")
    monkeypatch.setattr(batched, "_thread_budget", None)
    counts: list[int] = []
    original = batched._in_threads

    def counting(count, task, *args):
        counts.append(count)
        return original(count, task, *args)

    monkeypatch.setattr(batched, "_in_threads", counting)

    def run(trace, configs, threads, interval_size=None):
        batched.set_replay_threads(threads)
        counts.clear()
        before = threading.active_count()
        outcome = batched.simulate_batched(trace, configs, interval_size)
        assert threading.active_count() == before
        assert outcome.native
        # The first call takes every config; only an overflow retries.
        assert counts[0] == min(len(configs), threads)
        return [result_to_dict(result) for result in outcome.results]

    return run


@pytest.fixture
def python_rows(monkeypatch):
    """The parameter rows of every config the Python replay runs."""
    rows: list = []
    original = batched._run_python

    def recording(meta, action, config_rows, segment, n_intervals):
        rows.extend(config_rows)
        return original(meta, action, config_rows, segment, n_intervals)

    monkeypatch.setattr(batched, "_run_python", recording)
    return rows


#: Config sets of 1, 2, 3 and 13 points. The two-config set is two
#: one-config frontend groups; the larger ones mix a shared group with
#: groups of one.
CONFIG_SETS = {
    1: [power5()],
    2: [power5(), power5().with_btac()],
    3: [power5().with_fxus(2), power5().with_fxus(3).with_btac(),
        power5().with_fxus(4)],
    13: [
        replace(power5().with_fxus(fxus), taken_branch_penalty=penalty)
        for fxus in (1, 2, 3, 4)
        for penalty in (1, 2, 3)
    ] + [power5().with_btac()],
}


class TestThreadCount:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_golden_matrix(self, replay, python_rows, kernel):
        """Every kernel x variant under the golden FXU x BTAC matrix
        (two frontend groups of three configs)."""
        configs = [config for _, config in CONFIGS]
        for variant in ALL_VARIANTS:
            _, trace = _traces(kernel, variant)
            assert replay(trace, configs, threads=4) == replay(
                trace, configs, threads=1
            )
        # Every item was claimed: none was left to the Python replay.
        assert not python_rows

    @pytest.mark.parametrize("threads", (2, 3, 13))
    @pytest.mark.parametrize("size", sorted(CONFIG_SETS))
    def test_intervals(self, replay, python_rows, monkeypatch, size,
                       threads):
        """Interval rows, as fig2 records them, land at the right
        offsets for every config count: N threads == one thread ==
        the Python replay. Thirteen threads outnumber the cores."""
        trace = generate_trace(12_000, MixProfile(), seed=78)
        configs = CONFIG_SETS[size]
        threaded = replay(trace, configs, threads, interval_size=1_000)
        assert threaded == replay(trace, configs, 1, interval_size=1_000)
        assert not python_rows
        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert threaded == [
            result_to_dict(result)
            for result in batched.simulate_batched(
                trace, configs, interval_size=1_000
            ).results
        ]

    def test_default_budget_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(batched, "_thread_budget", None)
        assert batched.replay_threads() == batched.host_cpus() >= 1


# --------------------------------------------------------------------
# Lane overflow: retry at four times the capacity, then Python.
# --------------------------------------------------------------------


def _chain_trace(pairs: int) -> Trace:
    """A dependent chain: each load feeds a non-pipelined multiply (5
    cycles of FXU occupancy) that feeds the next load. Every load
    misses, so a config's miss penalty sets the cycles per pair."""
    trace = Trace()
    load = Instruction(Op.LD, rd=3, ra=3, imm=0)
    multiply = Instruction(Op.MUL, rd=3, ra=3, rb=4)
    for k in range(pairs):
        trace.append(2 * k, load, False, 2 * k + 1, 4096 * k)
        trace.append(2 * k + 1, multiply, False, 2 * k + 2, None)
    return trace


def _with_miss_penalty(penalty: int):
    config = power5()
    return replace(config, cache=replace(config.cache, miss_penalty=penalty))


class TestLaneOverflow:
    """Four configs of one frontend group. A chain of 24 dependent
    misses of P cycles keeps about 24 * (P + 10) cycles of usage lanes
    live ahead of dispatch, so penalty 0 and 100 fit the initial ring
    of 4,096 cells, 300 overflows it and retries in a ring four times
    larger, and 1,000 overflows that too and replays in Python. The
    others' results, intervals included, must not notice."""

    @pytest.mark.parametrize("threads", (1, 2, 3))
    def test_retry_and_fallback_match_python(self, replay, python_rows,
                                             monkeypatch, threads):
        trace = _chain_trace(1_500)
        configs = [_with_miss_penalty(p) for p in (0, 300, 1_000, 100)]
        attempts: list[int] = []
        original = batched._scratch

        def recording(window, cells):
            attempts.append(cells)
            return original(window, cells)

        monkeypatch.setattr(batched, "_scratch", recording)
        native = replay(trace, configs, threads, interval_size=500)
        assert python_rows == [batched._config_params(configs[2])]
        # Each thread of the first call allocates the initial ring; the
        # retry takes only the two overflowing configs.
        first = min(len(configs), threads)
        assert attempts == (
            [batched._RING_CELLS] * first
            + [4 * batched._RING_CELLS] * min(2, threads)
        )

        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert native == [
            result_to_dict(result)
            for result in batched.simulate_batched(
                trace, configs, interval_size=500
            ).results
        ]

    def test_unit_count_beyond_int32_replays_in_python(
        self, replay, python_rows, monkeypatch
    ):
        """An int32 lane cannot count 2**31 units: that config alone
        takes the Python replay."""
        trace = generate_trace(3_000, MixProfile(), seed=86)
        configs = [power5(), power5().with_fxus(2**31), power5().with_fxus(4)]
        native = replay(trace, configs, threads=2)
        assert python_rows == [batched._config_params(configs[1])]
        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert native == [
            result_to_dict(result)
            for result in batched.simulate_batched(trace, configs).results
        ]

    def test_penalty_beyond_int64_replays_in_python(
        self, replay, python_rows, monkeypatch
    ):
        """A taken-branch penalty of 2**63 does not fit the kernel's
        int64 parameter row: that config takes the Python replay, whose
        integers do not overflow, instead of failing the call."""
        trace = generate_trace(2_000, MixProfile(), seed=1)
        configs = [
            replace(power5(), taken_branch_penalty=2**63), power5(),
            power5().with_fxus(4),
        ]
        native = replay(trace, configs, threads=2)
        assert python_rows == [batched._config_params(configs[0])]
        assert native[0]["cycles"] == 1531079758117892787168
        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert native == [
            result_to_dict(result)
            for result in batched.simulate_batched(trace, configs).results
        ]


# --------------------------------------------------------------------
# The usage-lane ring: scratch sized by the configs, recycled cells.
# --------------------------------------------------------------------


def _booked_trace(op: Op, ops: int) -> Trace:
    """Independent ops on the FXU: with one FXU and a window wider than
    the trace, every op books the next free cycle while dispatch moves
    one cycle per fetch group, so the booked lane runs ever further
    ahead of dispatch and every cell between them is full."""
    trace = Trace()
    instruction = Instruction(op, rd=5, ra=0, imm=3)
    for k in range(ops):
        trace.append(k, instruction, False, k + 1, None)
    return trace


def _random_config(rng: random.Random):
    config = power5()
    btac = (
        None if rng.random() < 0.5
        else BtacConfig(wrong_target_penalty=rng.randint(0, 12))
    )
    return replace(
        config,
        fetch_width=rng.randint(1, 8),
        commit_width=rng.randint(1, 8),
        pipeline_depth=rng.randint(1, 30),
        window=rng.randint(1, 160),
        fxu_count=rng.randint(1, 4),
        lsu_count=rng.randint(1, 3),
        bru_count=rng.randint(1, 2),
        taken_branch_penalty=rng.randint(0, 10),
        btac=btac,
        cache=replace(
            config.cache,
            hit_latency=rng.randint(0, 6),
            miss_penalty=rng.randint(0, 150),
        ),
    )


class TestRing:
    def test_scratch_depends_only_on_the_configs(self, replay, monkeypatch):
        """A replay thread's scratch is the same for 10k events as for
        1M: the commit-window ring and three int32 lanes of the initial
        ring, 48 KB, whatever the trace's length."""
        sizes: list[int] = []
        original = batched._scratch

        def recording(window, cells):
            ring, lanes = original(window, cells)
            sizes.append(ring.nbytes + lanes.nbytes)
            return ring, lanes

        monkeypatch.setattr(batched, "_scratch", recording)
        short = generate_trace(10_000, MixProfile(), seed=11)
        long = Trace()
        for _ in range(100):
            long.extend(short)
        configs = [power5(), power5().with_fxus(4)]
        for trace in (short, long):
            replay(trace, configs, threads=2)
        assert len(long) == 1_000_000
        assert sizes == [8 * power5().window + 12 * batched._RING_CELLS] * 4

    @pytest.mark.parametrize(
        "op,ops,cycles_per_op",
        [(Op.ADDI, 6_000, 1), (Op.MULI, 1_500, 5)],
        ids=["pipelined", "non-pipelined"],
    )
    def test_booked_lane_retries_in_a_larger_ring(self, replay, op, ops,
                                                  cycles_per_op):
        """The FXU lane books past the initial ring while every cell up
        to its end is full, so only a window check inside the free-slot
        scan ends it: without one the scan wraps onto live cells and
        never stops. The retry's ring holds the trace, and the cycles
        are exact: one op per FXU occupancy from the first dispatch
        cycle (16), plus one for the last commit."""
        trace = _booked_trace(op, ops)
        config = replace(power5(), window=8_192, fxu_count=1)
        results: list = []
        worker = threading.Thread(
            target=lambda: results.append(replay(trace, [config], 1)),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "the replay kernel did not return"
        assert results[0][0]["cycles"] == cycles_per_op * ops + 17

    @pytest.mark.parametrize("seed", range(4))
    def test_random_timing_matches_python(self, replay, monkeypatch, seed):
        """Random penalties, latencies, widths and unit counts over a
        trace many rings long: the recycled lanes give exactly what the
        Python replay's unbounded dicts give."""
        rng = random.Random(seed)
        trace = generate_trace(20_000, MixProfile(), seed=100 + seed)
        configs = [_random_config(rng) for _ in range(6)]
        native = replay(trace, configs, threads=2, interval_size=2_000)
        assert max(result["cycles"] for result in native) > (
            2 * batched._RING_CELLS
        )
        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert native == [
            result_to_dict(result)
            for result in batched.simulate_batched(
                trace, configs, interval_size=2_000
            ).results
        ]
