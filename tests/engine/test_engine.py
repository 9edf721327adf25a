"""Engine layering: memo, disk cache, resimulation, telemetry."""

import json

import pytest

from repro.engine import serialize
from repro.engine.digest import config_digest
from repro.engine.engine import Engine
from repro.engine.telemetry import (
    SOURCE_DISK,
    SOURCE_MEMO,
    SOURCE_SIMULATED,
    EngineStats,
    PointRecord,
)
from repro.errors import SimulationError
from repro.uarch.config import power5

APP = "fasta"


class TestMemo:
    def test_structurally_equal_configs_hit_memo(self, fresh_engine):
        """Satellite fix: the memo key is the canonical config digest,
        so two separately-constructed-but-equal configs share one
        entry."""
        first = fresh_engine.characterize(APP, "baseline", power5())
        second = fresh_engine.characterize(APP, "baseline", power5())
        assert second is first
        assert fresh_engine.stats.memo_hits == 1
        assert len(fresh_engine.stats.points) == 1
        assert fresh_engine.stats.points[0].source == SOURCE_SIMULATED

    def test_default_config_is_power5(self, fresh_engine):
        first = fresh_engine.characterize(APP)
        second = fresh_engine.characterize(APP, "baseline", power5())
        assert second is first


class TestConfigPayload:
    """A journaled config payload goes through the same construction
    checks as a config built in code."""

    @pytest.mark.parametrize("path", (
        ("taken_branch_penalty",),
        ("btac", "wrong_target_penalty"),
        ("cache", "hit_latency"),
        ("cache", "miss_penalty"),
    ))
    def test_negative_penalty_rejected(self, path):
        payload = serialize.config_to_dict(power5().with_btac())
        *parents, field = path
        target = payload
        for parent in parents:
            target = target[parent]
        target[field] = -1
        with pytest.raises(SimulationError):
            serialize.config_from_dict(payload)


class TestPersistence:
    def test_second_engine_loads_identical_result_from_disk(
        self, fresh_engine, restore_globals
    ):
        simulated = fresh_engine.characterize(APP, "baseline")
        rerun = Engine(cache_dir=fresh_engine.cache.root)
        loaded = rerun.characterize(APP, "baseline")
        assert rerun.stats.points[0].source == SOURCE_DISK
        assert rerun.stats.cache.result_hits == 1
        assert serialize.characterisation_to_dict(
            loaded
        ) == serialize.characterisation_to_dict(simulated)

    def test_schema_corruption_is_resimulated_not_raised(
        self, fresh_engine, restore_globals
    ):
        simulated = fresh_engine.characterize(APP, "baseline")
        digest = config_digest(power5())
        path = fresh_engine.cache.result_path(APP, "baseline", digest)
        # Valid JSON object, but not a characterisation payload.
        path.write_text(json.dumps({"schema": 1}), encoding="utf-8")

        rerun = Engine(cache_dir=fresh_engine.cache.root)
        regenerated = rerun.characterize(APP, "baseline")
        assert rerun.stats.points[0].source == SOURCE_SIMULATED
        assert rerun.stats.cache.evictions == 1
        assert serialize.characterisation_to_dict(
            regenerated
        ) == serialize.characterisation_to_dict(simulated)
        # The corrupt entry was replaced by a fresh one.
        third = Engine(cache_dir=fresh_engine.cache.root)
        assert third.characterize(APP, "baseline") is not None
        assert third.stats.points[0].source == SOURCE_DISK

    def test_clear_persistent_empties_the_store(
        self, fresh_engine, restore_globals
    ):
        from repro.perf.characterize import clear_trace_caches

        clear_trace_caches()
        fresh_engine.characterize(APP, "baseline")
        stats = fresh_engine.cache_stats()
        assert stats["result_entries"] == 1
        # Kernel + background traces were regenerated and persisted.
        assert stats["trace_entries"] >= 2
        removed = fresh_engine.clear(persistent=True)
        assert removed >= 3
        after = fresh_engine.cache_stats()
        assert after["result_entries"] == 0
        assert after["trace_entries"] == 0
        assert after["memo_entries"] == 0
        clear_trace_caches()


class TestCacheOwnership:
    def test_private_engine_does_not_repoint_global_cache(
        self, tmp_path, restore_globals
    ):
        """Satellite fix: ``Engine(cache_dir=...)`` owns a private store;
        only ``use_cache_dir`` (CLI / workers) moves the global one, so
        an earlier engine's live counters can never be orphaned."""
        from repro.engine.cache import active_cache, use_cache_dir

        shared = use_cache_dir(tmp_path / "global")
        first = Engine()
        assert first.cache is shared

        second = Engine(cache_dir=tmp_path / "private")
        assert active_cache() is shared  # untouched by the constructor
        assert second.cache is not shared
        assert first.cache is shared
        # The first engine's telemetry still reports the live global
        # counters, not an orphaned snapshot.
        assert first.stats.cache is shared.counters
        assert second.stats.cache is second.cache.counters


class TestTelemetry:
    def test_point_record_mips(self):
        record = PointRecord(
            app=APP,
            variant="baseline",
            config_digest="0" * 12,
            wall_seconds=2.0,
            instructions=4_000_000,
            source=SOURCE_SIMULATED,
        )
        assert record.mips == pytest.approx(2.0)

    def test_stats_to_dict_shape(self, fresh_engine):
        fresh_engine.characterize(APP, "baseline")
        payload = fresh_engine.stats.to_dict()
        assert payload["points"][0]["app"] == APP
        assert payload["points"][0]["source"] == SOURCE_SIMULATED
        assert payload["points"][0]["wall_seconds"] > 0
        assert payload["cache"]["result_misses"] == 1
        assert payload["totals"]["points"] == 1
        assert payload["totals"]["instructions"] > 0

    def test_stats_json_round_trips(self, fresh_engine, tmp_path):
        fresh_engine.characterize(APP, "baseline")
        out = tmp_path / "telemetry.json"
        fresh_engine.stats.write_json(out)
        assert json.loads(out.read_text(encoding="utf-8")) == \
            fresh_engine.stats.to_dict()

    def test_merge_accumulates_worker_stats(self):
        parent, worker = EngineStats(), EngineStats()
        worker.record(PointRecord(
            app=APP, variant="baseline", config_digest="0" * 12,
            wall_seconds=1.0, instructions=100, source=SOURCE_MEMO,
        ))
        worker.cache.result_hits = 3
        parent.merge(worker)
        assert len(parent.points) == 1
        assert parent.cache.result_hits == 3
        assert parent.total_instructions == 100
