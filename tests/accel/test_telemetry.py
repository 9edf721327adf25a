"""Telemetry accel block (schema 8 on) and journal compatibility."""

from repro.accel import bioseal
from repro.engine import cache as cache_module
from repro.engine.digest import config_digest, point_key
from repro.engine.engine import Engine
from repro.engine.journal import RunJournal, load_run
from repro.engine.telemetry import EngineStats
from repro.uarch.config import power5


def stats_with(**overrides) -> EngineStats:
    stats = EngineStats()
    for name, value in overrides.items():
        setattr(stats, name, value)
    return stats


class TestSchema:
    def test_schema_has_an_accel_block(self):
        payload = EngineStats().to_dict()
        assert payload["schema"] == 9
        assert payload["accel"] == {
            "points": 0, "batched": 0, "bioseal_points": 0,
            "aphmm_points": 0, "offload_cycles": 0, "transfer_cycles": 0,
        }

    def test_accel_block_reflects_counters(self):
        stats = stats_with(
            accel_points=4, accel_batched=2, accel_bioseal_points=3,
            accel_aphmm_points=1, accel_offload_cycles=1000,
            accel_transfer_cycles=50,
        )
        block = stats.to_dict()["accel"]
        assert block["points"] == 4
        assert block["bioseal_points"] == 3
        assert block["offload_cycles"] == 1000


class TestMerge:
    def test_merge_sums_worker_counters(self):
        left = stats_with(accel_points=2, accel_bioseal_points=2,
                          accel_offload_cycles=100)
        right = stats_with(accel_points=3, accel_aphmm_points=3,
                           accel_transfer_cycles=7)
        left.merge(right)
        assert left.accel_points == 5
        assert left.accel_bioseal_points == 2
        assert left.accel_aphmm_points == 3
        assert left.accel_offload_cycles == 100
        assert left.accel_transfer_cycles == 7

    def test_merge_accel_from_journal_payload(self):
        stats = EngineStats()
        stats.merge_accel({"points": 2, "bioseal_points": 2,
                           "offload_cycles": 10, "transfer_cycles": 1})
        stats.merge_accel({"points": 1, "aphmm_points": 1})
        assert stats.accel_points == 3
        assert stats.accel_bioseal_points == 2
        assert stats.accel_aphmm_points == 1

    def test_merge_accel_tolerates_sparse_payloads(self):
        # A journal written before a counter existed simply lacks the
        # key; merging must not raise or invent values.
        stats = EngineStats()
        stats.merge_accel({})
        stats.merge_accel({"points": 1})
        assert stats.accel_points == 1
        assert stats.accel_offload_cycles == 0


class TestRender:
    def test_offload_table_only_when_offloading(self):
        assert "Accelerator offload" not in EngineStats().render()
        active = stats_with(accel_points=1, accel_bioseal_points=1)
        rendered = active.render()
        assert "Accelerator offload" in rendered
        assert "BioSEAL" in rendered


class TestJournalCompatibility:
    def test_accel_sweep_journals_the_counters(
        self, tmp_path, restore_globals
    ):
        root = tmp_path / "cache"
        cache_module.use_cache_dir(root)
        engine = Engine(cache_dir=root)
        points = [
            ("blast", "baseline", bioseal().with_class(cls))
            for cls in ("A", "B")
        ]
        engine.characterize_many(points, jobs=1, run_id="accel-journal")
        state = load_run(root, "accel-journal")
        assert state.accel is not None
        assert state.accel["points"] == 2
        assert state.accel["bioseal_points"] == 2
        assert state.accel["offload_cycles"] > 0

    def test_pre_accel_journal_still_loads(self, tmp_path):
        # A journal from before the subsystem existed has no
        # accel_stats record: it must list and reconstruct exactly as
        # before, with the accel field simply absent.
        root = tmp_path / "cache"
        points = [("blast", "baseline", power5())]
        with RunJournal.create(root, points, jobs=1,
                               run_id="old-run") as journal:
            journal.record_point_done(
                point_key(*points[0]), "0" * 16
            )
            journal.record_complete(failures=0)
        state = load_run(root, "old-run")
        assert state.accel is None
        assert state.complete
        assert state.reconstruct_points()[0][0] == "blast"

    def test_core_only_sweep_writes_no_accel_record(
        self, tmp_path, restore_globals
    ):
        root = tmp_path / "cache"
        cache_module.use_cache_dir(root)
        engine = Engine(cache_dir=root)
        engine.characterize_many(
            [("clustalw", "baseline", power5())], jobs=1,
            run_id="core-run",
        )
        state = load_run(root, "core-run")
        assert state.accel is None
        assert state.complete
