"""The threaded native replay gives the one-thread answer, exactly.

One replay call spreads a trace's (frontend group, config) items over
several threads, each with its own bounded scratch. Every item writes
only its own output rows, so the thread count must never show in a
result: these tests compare whole serialised :class:`SimResult`\\ s,
interval records included, for one thread against several, and pin
the per-config lane-overflow path (retry at a larger capacity, then
the Python replay) against ``REPRO_NATIVE=off``.
"""

import threading
from dataclasses import replace

import pytest

from repro.engine.serialize import result_to_dict
from repro.isa.instructions import Instruction, Op
from repro.isa.trace import Trace
from repro.kernels.runtime import ALL_VARIANTS
from repro.uarch import batched
from repro.uarch.config import power5
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
    """Four configs of one frontend group: two stay within the initial
    lane capacity, one overflows it and retries natively, and one
    overflows the retry too and replays in Python. The others' results,
    intervals included, must not notice."""

    @pytest.mark.parametrize("threads", (1, 2, 3))
    def test_retry_and_fallback_match_python(self, replay, python_rows,
                                             monkeypatch, threads):
        trace = _chain_trace(1_500)
        configs = [_with_miss_penalty(p) for p in (0, 40, 100, 5)]
        native = replay(trace, configs, threads, interval_size=500)
        assert python_rows == [batched._config_params(configs[2])]

        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert native == [
            result_to_dict(result)
            for result in batched.simulate_batched(
                trace, configs, interval_size=500
            ).results
        ]
        cap = batched._lane_cap(len(trace))
        cycles = [result["cycles"] for result in native]
        assert max(cycles[0], cycles[3]) < cap - 200
        assert cap + 200 < cycles[1] < 4 * cap - 200
        assert cycles[2] > 4 * cap + 200

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
