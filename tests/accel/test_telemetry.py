"""Accelerator counters in the telemetry and the journal (schema 10)."""

from repro.accel import aphmm, bioseal
from repro.engine import cache as cache_module
from repro.engine.digest import point_key
from repro.engine.engine import Engine
from repro.engine.journal import RunJournal, load_run
from repro.engine.telemetry import EngineStats
from repro.uarch.config import power5


def stats_with(**counters) -> EngineStats:
    stats = EngineStats()
    for name, value in counters.items():
        stats.count(f"accel.{name}", value)
    return stats


def accel_counters(counters: dict) -> dict:
    return {
        name: value for name, value in counters.items()
        if name.startswith("accel.")
    }


def legacy_journal(root, run_id, *records):
    """A one-point journal carrying hand-written ``accel_stats`` records."""
    points = [("blast", "baseline", power5())]
    with RunJournal.create(root, points, jobs=1, run_id=run_id) as journal:
        for record in records:
            journal._append(
                {"record": "accel_stats", "run_id": run_id, **record}
            )
    return load_run(root, run_id)


class TestSchema:
    def test_accel_block_reflects_counters(self):
        stats = stats_with(
            points=4, batched=2, bioseal_points=3, aphmm_points=1,
            offload_cycles=1000, transfer_cycles=50,
        )
        block = stats.to_dict()["counters"]
        assert block["accel.points"] == 4
        assert block["accel.bioseal_points"] == 3
        assert block["accel.offload_cycles"] == 1000


class TestMerge:
    def test_merge_sums_worker_counters(self):
        left = stats_with(points=2, bioseal_points=2, offload_cycles=100)
        right = stats_with(points=3, aphmm_points=3, transfer_cycles=7)
        left.merge(right)
        assert left.counters == {
            "accel.points": 5,
            "accel.bioseal_points": 2,
            "accel.aphmm_points": 3,
            "accel.offload_cycles": 100,
            "accel.transfer_cycles": 7,
        }

    def test_merge_accel_from_journal_payload(self, tmp_path):
        # Journals written before the ``counters`` record carry one
        # ``accel_stats`` record per attempt; they sum into the same
        # counters under ``accel.`` names.
        state = legacy_journal(
            tmp_path, "legacy-accel",
            {"points": 2, "bioseal_points": 2, "offload_cycles": 10,
             "transfer_cycles": 1},
            {"points": 1, "aphmm_points": 1},
        )
        assert state.corrupt is None
        assert state.counters == {
            "accel.points": 3,
            "accel.bioseal_points": 2,
            "accel.aphmm_points": 1,
            "accel.offload_cycles": 10,
            "accel.transfer_cycles": 1,
        }

    def test_merge_accel_tolerates_sparse_payloads(self, tmp_path):
        # A record written before a counter existed simply lacks the
        # key; reading it must not raise or invent values.
        state = legacy_journal(tmp_path, "sparse", {}, {"points": 1})
        assert state.corrupt is None
        assert state.counters == {"accel.points": 1}


class TestRender:
    def test_offload_table_only_when_offloading(self):
        assert "accel." not in EngineStats().render()
        rendered = stats_with(points=1, bioseal_points=1).render()
        assert "Engine counters" in rendered
        assert "accel.bioseal_points" in rendered


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
        assert state.counters["accel.points"] == 2
        assert state.counters["accel.bioseal_points"] == 2
        assert state.counters["accel.offload_cycles"] > 0

    def test_pre_accel_journal_still_loads(self, tmp_path):
        # A journal from before the subsystem existed has no counter
        # records: it must list and reconstruct exactly as before.
        root = tmp_path / "cache"
        points = [("blast", "baseline", power5())]
        with RunJournal.create(root, points, jobs=1,
                               run_id="old-run") as journal:
            journal.record_point_done(
                point_key(*points[0]), "0" * 16
            )
            journal.record_complete(failures=0)
        state = load_run(root, "old-run")
        assert state.counters == {}
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
        assert accel_counters(state.counters) == {}
        assert state.complete

    def test_pool_workers_journal_the_serial_counters(
        self, tmp_path, restore_globals
    ):
        """Workers' counters reach the journal with no per-name code.

        ``stream.*`` is left out: a serial engine reuses an app's
        background across code variants, pool workers do not.
        """
        sweep = [
            ("clustalw", "baseline", power5()),
            ("clustalw", "baseline", power5().with_fxus(3)),
            ("clustalw", "combination", power5()),
            ("clustalw", "baseline", bioseal().with_class("A")),
            ("clustalw", "baseline", bioseal().with_class("B")),
            ("hmmer", "baseline", aphmm().with_class("A")),
        ]
        journaled = {}
        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            cache_module.use_cache_dir(root)
            Engine(cache_dir=root).characterize_many(
                sweep, jobs=jobs, run_id="mixed", batch=True
            )
            journaled[jobs] = {
                name: value
                for name, value in load_run(root, "mixed").counters.items()
                if not name.startswith("stream.")
            }
        assert journaled[1] == journaled[2]
        # Two core groups: clustalw baseline's pair and the one-point
        # combination group.
        assert journaled[1]["batch.groups"] == 2
        assert journaled[1]["batch.points"] == 3
        assert journaled[1]["accel.points"] == 3
        assert journaled[1]["accel.aphmm_points"] == 1
