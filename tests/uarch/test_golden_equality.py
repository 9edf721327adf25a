"""Columnar vs object simulation paths must agree exactly.

The columnar ``Core._simulate_columnar`` hot loop replaces the object
loop (``Core._simulate_events``, kept verbatim as the golden
reference). This suite drives every kernel x code variant through both
paths under every interesting core configuration — BTAC on/off crossed
with 2/3/4 FXUs — and requires the *entire* serialised
:class:`SimResult` to match, intervals included. Any divergence in the
rewritten loop (flag decoding, dependency scoreboard, unit occupancy,
branch redirect, stall attribution) fails here first.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.bio.guidetree import upgma
from repro.bio.hmm import build_hmm
from repro.bio.msa import clustalw, pairwise_distance_matrix
from repro.bio.scoring import BLOSUM62, GapPenalties
from repro.bio.workloads import make_family, mutate
from repro.engine.serialize import result_to_dict
from repro.isa.trace import F_LOAD, Trace
from repro.kernels import (
    forward_pass,
    gapped_extend,
    parsimony,
    smith_waterman,
    viterbi,
)
from repro.kernels.runtime import ALL_VARIANTS
from repro.uarch import batched
from repro.uarch.config import (
    PREDICTOR_KINDS,
    BtacConfig,
    CacheConfig,
    power5,
)
from repro.uarch.core import Core
from repro.uarch.synthetic import MixProfile, generate_trace

GAPS = GapPenalties(10, 2)

KERNELS = ("fasta", "clustalw", "blast", "hmmer", "phylip")

#: (label, config) for the design points the paper's figures sweep.
CONFIGS = tuple(
    (f"fxu{fxus}-{'btac' if btac else 'nobtac'}", config)
    for fxus in (2, 3, 4)
    for btac, config in (
        (False, power5().with_fxus(fxus)),
        (True, power5().with_fxus(fxus).with_btac()),
    )
)


def _kernel_events(kernel: str, variant: str) -> list:
    """A small-but-real dynamic trace for one kernel variant."""
    events: list = []
    if kernel == "fasta":
        family = make_family("ge-fa", 2, 28, 0.3, seed=51)
        smith_waterman.run(
            variant, family[0], family[1], BLOSUM62, GAPS, trace=events
        )
    elif kernel == "clustalw":
        family = make_family("ge-cw", 2, 24, 0.3, seed=52)
        forward_pass.run(
            variant, family[0], family[1], BLOSUM62, GAPS, trace=events
        )
    elif kernel == "blast":
        family = make_family("ge-bl", 2, 40, 0.25, seed=53)
        gapped_extend.run(
            variant, family[0], family[1], BLOSUM62, GapPenalties(11, 1),
            trace=events,
        )
    elif kernel == "hmmer":
        family = make_family("ge-hm", 4, 24, 0.2, seed=54)
        msa = clustalw(family)
        model = build_hmm(
            "ge-hm", list(msa.rows), msa.sequences[0].alphabet
        )
        query = mutate(family[0], "ge-q", 0.3)
        viterbi.run(variant, model, query, trace=events)
    elif kernel == "phylip":
        family = make_family("ge-ph", 5, 20, 0.3, seed=55)
        msa = clustalw(family)
        tree = upgma(
            np.asarray(pairwise_distance_matrix(family, method="ktuple"))
        )
        parsimony.run(
            variant, tree, list(msa.rows), family[0].alphabet.symbols,
            trace=events,
        )
    else:  # pragma: no cover
        raise AssertionError(kernel)
    return events


_trace_memo: dict = {}


def _traces(kernel: str, variant: str) -> tuple[list, Trace]:
    key = (kernel, variant)
    if key not in _trace_memo:
        events = _kernel_events(kernel, variant)
        _trace_memo[key] = (events, Trace.from_events(events))
    return _trace_memo[key]


class TestKernelGoldenEquality:
    @pytest.mark.parametrize("label,config", CONFIGS, ids=[c[0] for c in CONFIGS])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_columnar_matches_object_path(self, kernel, variant, label, config):
        events, columnar = _traces(kernel, variant)
        golden = result_to_dict(Core(config).simulate(events))
        rewritten = result_to_dict(Core(config).simulate(columnar))
        assert rewritten == golden


class TestPredictorGoldenEquality:
    """Every registered predictor kind: columnar == object, exactly.

    The columnar loop inlines the default gshare but routes every other
    kind through ``predictor.update()``; both routes must still match
    the object reference path counter for counter.
    """

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_kernel_trace_matches(self, kind):
        events, columnar = _traces("fasta", "baseline")
        config = power5().with_predictor(
            kind, table_bits=10, history_bits=8
        )
        golden = result_to_dict(Core(config).simulate(events))
        rewritten = result_to_dict(Core(config).simulate(columnar))
        assert rewritten == golden

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_synthetic_mix_matches(self, kind):
        columnar = generate_trace(15_000, MixProfile(), seed=76)
        events = columnar.to_events()
        config = power5().with_btac().with_predictor(
            kind, table_bits=10, history_bits=8
        )
        golden = result_to_dict(Core(config).simulate(events))
        rewritten = result_to_dict(Core(config).simulate(columnar))
        assert rewritten == golden

    def test_default_spec_is_bit_identical_to_plain_power5(self):
        """An explicit default PredictorSpec must not perturb anything:
        same digest-relevant behaviour as the seed's gshare."""
        from repro.uarch.config import PredictorSpec

        events, columnar = _traces("fasta", "baseline")
        stock = result_to_dict(Core(power5()).simulate(columnar))
        explicit = result_to_dict(
            Core(
                power5().with_predictor(PredictorSpec())
            ).simulate(columnar)
        )
        assert explicit == stock


class TestSyntheticGoldenEquality:
    @pytest.mark.parametrize("label,config", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_synthetic_mix_matches(self, label, config):
        """The synthetic background mix exercises indirect branches and
        far memory that the kernels don't."""
        columnar = generate_trace(20_000, MixProfile(), seed=77)
        events = columnar.to_events()
        golden = result_to_dict(Core(config).simulate(events))
        rewritten = result_to_dict(Core(config).simulate(columnar))
        assert rewritten == golden

    def test_intervals_match(self):
        columnar = generate_trace(12_000, MixProfile(), seed=78)
        events = columnar.to_events()
        config = power5().with_btac()
        golden = result_to_dict(
            Core(config).simulate(events, interval_size=1_000)
        )
        rewritten = result_to_dict(
            Core(config).simulate(columnar, interval_size=1_000)
        )
        assert rewritten["intervals"] == golden["intervals"]
        assert rewritten == golden

    def test_view_simulates_like_materialized_slice(self):
        columnar = generate_trace(10_000, MixProfile(), seed=79)
        events = columnar.to_events()
        config = power5()
        golden = result_to_dict(Core(config).simulate(events[2_000:7_000]))
        rewritten = result_to_dict(
            Core(config).simulate(columnar[2_000:7_000])
        )
        assert rewritten == golden


class TestBatchedGoldenEquality:
    """``simulate_batched`` == N sequential ``Core.simulate`` calls.

    The batched path shares one frontend pass (predictor / BTAC / L1D)
    across every config in a frontend group and replays per-config
    timing from the recorded action stream; this matrix pins the whole
    serialised :class:`SimResult` — intervals included — to the scalar
    loop across predictor kinds, FXU counts and BTAC sizes, plus the
    ragged case where one call mixes a shared group and a one-config
    group, and the object-form input that falls back for every config.
    """

    def _batched_vs_sequential(self, trace, configs, interval_size=None):
        from repro.uarch.batched import simulate_batched

        outcome = simulate_batched(trace, configs,
                                   interval_size=interval_size)
        golden = [
            result_to_dict(
                Core(config).simulate(trace, interval_size=interval_size)
            )
            for config in configs
        ]
        assert [result_to_dict(r) for r in outcome.results] == golden
        return outcome

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_predictor_kinds_batched(self, kind):
        _, trace = _traces("fasta", "baseline")
        configs = [
            power5().with_fxus(fxus).with_predictor(
                kind, table_bits=10, history_bits=8
            )
            for fxus in (2, 3, 4)
        ]
        outcome = self._batched_vs_sequential(trace, configs)
        # Timing-only variation: one frontend group, everything batched.
        assert outcome.vectorized == len(configs)

    def test_fxu_and_btac_matrix_batched(self):
        """FXU counts x BTAC sizes: several frontend groups, one call."""
        from repro.uarch.config import BtacConfig

        _, trace = _traces("blast", "baseline")
        configs = [
            power5().with_fxus(fxus).with_btac(
                BtacConfig(entries=entries)
            )
            for fxus in (2, 3, 4)
            for entries in (8, 16)
        ]
        # Two BTAC sizes -> two frontend groups of three timing configs.
        self._batched_vs_sequential(trace, configs)

    def test_intervals_batched(self):
        trace = generate_trace(12_000, MixProfile(), seed=78)
        configs = [power5().with_fxus(fxus) for fxus in (2, 3, 4)]
        self._batched_vs_sequential(trace, configs, interval_size=1_000)

    def test_ragged_groups_all_batch(self):
        """One call, ragged groups: a three-config group and a
        one-config group both run the shared pass and the replay, and
        match the scalar loop."""
        _, trace = _traces("fasta", "baseline")
        configs = [
            power5().with_fxus(2),
            power5().with_fxus(3),
            power5().with_fxus(4),
            power5().with_predictor(
                "perceptron", table_bits=10, history_bits=8
            ),
        ]
        outcome = self._batched_vs_sequential(trace, configs)
        assert outcome.batched == [True] * 4
        assert outcome.fallback == 0

    def test_object_form_list_falls_back_for_every_config(self):
        """An event list has no packed encoding: every config, grouped
        or alone, takes the scalar loop."""
        events, _ = _traces("fasta", "baseline")
        configs = [
            power5().with_fxus(2),
            power5().with_fxus(4),
            power5().with_btac(),
        ]
        outcome = self._batched_vs_sequential(events, configs)
        assert outcome.batched == [False] * 3
        assert not outcome.native
        assert not outcome.native_frontend

    def test_python_replay_matches_without_native_kernel(self, monkeypatch):
        """REPRO_NATIVE=off pins the pure-Python timing replay."""
        monkeypatch.setenv("REPRO_NATIVE", "off")
        trace = generate_trace(8_000, MixProfile(), seed=80)
        configs = [power5().with_fxus(fxus) for fxus in (2, 4)]
        outcome = self._batched_vs_sequential(trace, configs)
        assert not outcome.native
        assert outcome.vectorized == len(configs)


#: Frontend geometries the native walk handles on its own code paths:
#: BTACs that evict on every allocation, the extreme scoring settings,
#: direct-mapped and highly associative L1Ds (small, so lines evict),
#: a line size that is no multiple of the word, and history-free gshare.
FRONTEND_CASES = (
    ("btac1", power5().with_btac(BtacConfig(entries=1))),
    ("btac2", power5().with_btac(BtacConfig(entries=2))),
    ("threshold0", power5().with_btac(BtacConfig(score_threshold=0))),
    ("initial-max", power5().with_btac(BtacConfig(initial_score=3))),
    ("l1d-1way", replace(power5(), cache=CacheConfig(2048, ways=1))),
    ("l1d-8way", replace(power5(), cache=CacheConfig(2048, ways=8))),
    ("l1d-12B-lines", replace(
        power5(), cache=CacheConfig(96, line_bytes=12, ways=1))),
    ("history0", power5().with_predictor(
        "gshare", table_bits=10, history_bits=0)),
)


class TestFrontendEquality:
    """Native and Python frontend walks == the scalar core, exactly.

    Each case runs a two-config timing group, so the shared frontend
    pass (native or Python, per the ``native`` fixture) produces both
    results, which must match ``Core.simulate`` — intervals included.
    The one-config cases pin the fresh-core production path: a group
    of one runs the same pass and replay.
    """

    def _check(self, trace, config, interval_size=None, group=2):
        configs = [config, config.with_fxus(4)][:group]
        outcome = batched.simulate_batched(
            trace, configs, interval_size=interval_size
        )
        golden = [
            result_to_dict(Core(c).simulate(trace, interval_size))
            for c in configs
        ]
        assert [result_to_dict(r) for r in outcome.results] == golden
        assert outcome.vectorized == len(configs)
        return outcome

    @pytest.mark.parametrize(
        "label,config", FRONTEND_CASES, ids=[c[0] for c in FRONTEND_CASES]
    )
    def test_one_config_group(self, label, config, native):
        trace = generate_trace(12_000, MixProfile(), seed=81)
        outcome = self._check(trace, config, interval_size=1_000, group=1)
        assert outcome.native_frontend == outcome.native == native

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_one_config_kind(self, kind, native):
        """Kinds other than gshare walk in Python; the replay of the
        one config stays native whenever the kernel loads."""
        trace = generate_trace(12_000, MixProfile(), seed=85)
        config = power5().with_btac().with_predictor(
            kind, table_bits=10, history_bits=8
        )
        outcome = self._check(trace, config, interval_size=1_000, group=1)
        assert outcome.native == native
        assert outcome.native_frontend == (native and kind == "gshare")

    @pytest.mark.parametrize(
        "label,config", FRONTEND_CASES, ids=[c[0] for c in FRONTEND_CASES]
    )
    def test_synthetic_mix(self, label, config, native):
        trace = generate_trace(12_000, MixProfile(), seed=81)
        outcome = self._check(trace, config, interval_size=1_000)
        assert outcome.native_frontend == outcome.native == native

    @pytest.mark.parametrize(
        "label,config", FRONTEND_CASES, ids=[c[0] for c in FRONTEND_CASES]
    )
    def test_kernel_trace(self, label, config, native):
        _, trace = _traces("blast", "baseline")
        outcome = self._check(trace, config)
        assert outcome.native_frontend == outcome.native == native

    def test_negative_addresses_floor_like_python(self, native):
        """Line addresses use floor division, as Python's ``//`` does."""
        trace = generate_trace(6_000, MixProfile(), seed=82)
        for index in range(0, len(trace), 3):
            trace.address[index] = -trace.address[index] - 1
        config = replace(power5(), cache=CacheConfig(96, 12, ways=1))
        outcome = self._check(trace, config)
        assert outcome.native_frontend == native

    def test_byte_address_beyond_int64_walks_in_python(self, native):
        """The kernel refuses an access whose byte address overflows
        int64; the group's walk runs in Python and stays exact."""
        trace = generate_trace(6_000, MixProfile(), seed=83)
        flags = np.frombuffer(trace.flags, dtype=np.uint8)
        trace.address[int(np.flatnonzero(flags & F_LOAD)[10])] = 1 << 61
        outcome = self._check(trace, power5().with_btac())
        assert not outcome.native_frontend
        assert outcome.native == native

    def test_geometry_beyond_int64_walks_in_python(self, native):
        """A BTAC score wider than int64 cannot be packed for the
        kernel; the group's walk runs in Python and stays exact."""
        trace = generate_trace(6_000, MixProfile(), seed=84)
        outcome = self._check(
            trace, power5().with_btac(BtacConfig(score_bits=64))
        )
        assert not outcome.native_frontend
        assert outcome.native == native
