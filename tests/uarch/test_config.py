"""Tests for core-model configuration."""

import pytest

from repro.errors import SimulationError
from repro.uarch.config import (
    PREDICTOR_KINDS,
    BtacConfig,
    CacheConfig,
    CoreConfig,
    PredictorConfig,
    PredictorSpec,
    power5,
)


class TestPower5Preset:
    def test_paper_parameters(self):
        config = power5()
        assert config.fxu_count == 2
        assert config.taken_branch_penalty == 2
        assert config.btac is None
        assert config.commit_width == 5
        assert config.fetch_width == 5

    def test_with_btac(self):
        enhanced = power5().with_btac()
        assert enhanced.btac is not None
        assert enhanced.btac.entries == 8
        # Original untouched (frozen dataclass).
        assert power5().btac is None

    def test_with_fxus(self):
        assert power5().with_fxus(4).fxu_count == 4


class TestValidation:
    def test_bad_widths(self):
        with pytest.raises(SimulationError):
            CoreConfig(fetch_width=0)
        with pytest.raises(SimulationError):
            CoreConfig(commit_width=0)

    def test_need_units(self):
        with pytest.raises(SimulationError):
            CoreConfig(fxu_count=0)

    def test_bad_pipeline(self):
        with pytest.raises(SimulationError):
            CoreConfig(taken_branch_penalty=-1)
        with pytest.raises(SimulationError):
            CoreConfig(pipeline_depth=0)

    def test_btac_validation(self):
        with pytest.raises(SimulationError):
            BtacConfig(entries=0)
        with pytest.raises(SimulationError):
            BtacConfig(score_bits=2, score_threshold=4)
        with pytest.raises(SimulationError):
            BtacConfig(score_bits=1, initial_score=5)

    def test_predictor_validation(self):
        with pytest.raises(SimulationError):
            PredictorConfig(table_bits=0)
        with pytest.raises(SimulationError):
            PredictorConfig(table_bits=4, history_bits=8)

    def test_cache_validation(self):
        with pytest.raises(SimulationError):
            CacheConfig(size_bytes=0)
        with pytest.raises(SimulationError):
            # 3 sets: not a power of two
            CacheConfig(size_bytes=3 * 128 * 4, line_bytes=128, ways=4)

    @pytest.mark.parametrize("field", ("hit_latency", "miss_penalty"))
    def test_cache_latencies_non_negative(self, field):
        with pytest.raises(SimulationError):
            CacheConfig(**{field: -1})
        assert getattr(CacheConfig(**{field: 0}), field) == 0

    def test_cache_sets(self):
        assert CacheConfig().sets == 64


class TestPredictorSpec:
    def test_default_is_the_seed_gshare(self):
        spec = PredictorSpec()
        assert spec.kind == "gshare"
        assert spec.table_bits == 12
        assert spec.history_bits == 10
        assert power5().predictor == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            PredictorSpec(kind="ttage")

    def test_bad_geometry_rejected(self):
        with pytest.raises(SimulationError):
            PredictorSpec(table_bits=0)
        with pytest.raises(SimulationError):
            PredictorSpec(history_bits=-1)
        with pytest.raises(SimulationError):
            PredictorSpec(threshold=-1)

    def test_gshare_like_history_bounded_by_index(self):
        for kind in ("gshare", "tournament"):
            with pytest.raises(SimulationError):
                PredictorSpec(kind=kind, table_bits=4, history_bits=8)
        # Local/perceptron history is not an index: no such bound.
        PredictorSpec(kind="local", table_bits=4, history_bits=8)
        PredictorSpec(kind="perceptron", table_bits=4, history_bits=8)

    def test_every_kind_constructs_a_default_spec(self):
        for kind in PREDICTOR_KINDS:
            spec = PredictorSpec(
                kind=kind, table_bits=10, history_bits=8
            )
            assert spec.kind == kind

    def test_gshare_geometry_round_trip(self):
        spec = PredictorSpec(table_bits=8, history_bits=6)
        legacy = spec.gshare_geometry()
        assert isinstance(legacy, PredictorConfig)
        assert (legacy.table_bits, legacy.history_bits) == (8, 6)

    def test_with_predictor(self):
        config = power5().with_predictor("perceptron", history_bits=24)
        assert config.predictor.kind == "perceptron"
        assert config.predictor.history_bits == 24
        # A full spec takes no geometry overrides.
        with pytest.raises(SimulationError):
            power5().with_predictor(PredictorSpec(), table_bits=8)
        # Original untouched (frozen dataclass).
        assert power5().predictor.kind == "gshare"


class TestSmtMode:
    def test_with_smt_bubble(self):
        assert power5().with_smt().taken_branch_penalty == 3

    def test_composes_with_other_knobs(self):
        config = power5().with_smt().with_btac().with_fxus(4)
        assert config.taken_branch_penalty == 3
        assert config.btac is not None
        assert config.fxu_count == 4
