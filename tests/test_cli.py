"""Tests for the command-line interface."""

import pytest

from repro.bio.fasta_io import write_fasta
from repro.bio.sequence import Sequence
from repro.bio.workloads import make_family, make_genome
from repro.cli import main


@pytest.fixture
def family_fasta(tmp_path):
    path = tmp_path / "family.fasta"
    write_fasta(path, make_family("fam", 4, 40, 0.2, seed=11))
    return str(path)


@pytest.fixture
def query_and_db(tmp_path):
    family = make_family("fam", 6, 60, 0.25, seed=13)
    query_path = tmp_path / "query.fasta"
    db_path = tmp_path / "db.fasta"
    write_fasta(query_path, [family[0]])
    write_fasta(db_path, family[1:])
    return str(query_path), str(db_path)


class TestAlign:
    def test_local(self, family_fasta, capsys):
        assert main(["align", family_fasta]) == 0
        out = capsys.readouterr().out
        assert "score" in out
        assert "|" in out  # identity markers

    def test_global_with_matrix(self, family_fasta, capsys):
        assert main(
            ["align", family_fasta, "--mode", "global",
             "--matrix", "pam250"]
        ) == 0
        assert "PAM250" in capsys.readouterr().out

    def test_single_record_fails(self, tmp_path, capsys):
        path = tmp_path / "one.fasta"
        write_fasta(path, [Sequence("only", "MKVLAT")])
        assert main(["align", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_fails(self, capsys):
        assert main(["align", "/nonexistent.fasta"]) == 1


class TestSearch:
    @pytest.mark.parametrize("mode", ["blast", "fasta", "ssearch"])
    def test_modes(self, query_and_db, capsys, mode):
        query, db = query_and_db
        assert main(["search", query, db, "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert "fam" in out

    def test_top_limits_output(self, query_and_db, capsys):
        query, db = query_and_db
        main(["search", query, db, "--mode", "ssearch", "--top", "2"])
        out = capsys.readouterr().out
        hits = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(hits) == 2


class TestMsa:
    def test_alignment_printed(self, family_fasta, capsys):
        assert main(["msa", family_fasta]) == 0
        out = capsys.readouterr().out
        assert "guide tree" in out
        assert "fam_0" in out

    def test_nj_tree(self, family_fasta, capsys):
        assert main(["msa", family_fasta, "--tree", "nj"]) == 0


class TestPhylogeny:
    def test_newick_output(self, family_fasta, capsys):
        assert main(["phylogeny", family_fasta, "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith(";")
        assert "fam_0" in out


class TestOrfs:
    @pytest.fixture
    def genome_files(self, tmp_path):
        genome = make_genome(n_genes=3, gene_codons=40, spacer=200,
                             seed=17)
        genome_path = tmp_path / "genome.fasta"
        write_fasta(genome_path, [genome.genome])
        train_path = tmp_path / "train.fasta"
        write_fasta(
            train_path,
            [Sequence(f"g{i}", gene) for i, gene in
             enumerate(genome.genes[:2])],
        )
        return str(genome_path), str(train_path)

    def test_plain_scan(self, genome_files, capsys):
        genome_path, _train = genome_files
        assert main(["orfs", genome_path]) == 0
        out = capsys.readouterr().out
        assert "ORFs" in out

    def test_glimmer_mode(self, genome_files, capsys):
        genome_path, train = genome_files
        assert main(
            ["orfs", genome_path, "--train", train, "--order", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "predicted genes" in out


class TestSimulate:
    def test_single_variant(self, capsys):
        assert main(
            ["simulate", "fasta", "--variant", "hand_max"]
        ) == 0
        out = capsys.readouterr().out
        assert "hand_max" in out
        assert "work IPC" in out


class TestTrace:
    def test_dump_and_reload(self, tmp_path, capsys):
        out = tmp_path / "k.trace"
        assert main(["trace", "clustalw", "baseline", str(out)]) == 0
        assert out.read_bytes().startswith(b"repro-trace v3\x00")
        first = capsys.readouterr().out
        assert first.startswith("# wrote ")
        events = int(first.split()[2])
        assert main(["trace", "--load", str(out)]) == 0
        second = capsys.readouterr().out
        assert f": {events} instructions" in second
        assert "ipc=" in second
        assert main(["trace", "--stats", "--load", str(out)]) == 0
        stats = capsys.readouterr().out
        assert stats.startswith(f"# {out}: {events} instructions\n")

    def test_missing_trace_file(self, capsys):
        assert main(["trace", "--load", "/nonexistent.trace"]) == 1

    @pytest.mark.parametrize("stats", [[], ["--stats"]])
    def test_neither_app_nor_load_is_a_usage_error(self, capsys, stats):
        assert main(["trace", *stats]) == 1
        assert "give an app or --load FILE" in capsys.readouterr().err

    def test_v1_text_trace_is_rejected(self, tmp_path, capsys):
        legacy = tmp_path / "legacy.trace"
        legacy.write_text("repro-trace v1 1\n0 li 0 1 - 3 -\n")
        assert main(["trace", "--load", str(legacy)]) == 1
        assert "not a v3 trace file" in capsys.readouterr().err


class TestAsm:
    @pytest.mark.parametrize("app", ["clustalw", "phylip"])
    def test_listing_printed(self, capsys, app):
        assert main(["asm", app, "hand_isel"]) == 0
        out = capsys.readouterr().out
        assert "isel" in out
        assert "halt" in out

    def test_baseline_default(self, capsys):
        assert main(["asm", "fasta"]) == 0
        out = capsys.readouterr().out
        assert "bt cr0" in out or "bf cr0" in out


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _restore_global_cache(self):
        from repro.engine import cache as cache_module

        original = cache_module._active_cache
        yield
        cache_module._active_cache = original

    def test_gc_sweeps_tmp_and_quarantines(self, tmp_path, capsys):
        from repro.engine.cache import PersistentCache
        from repro.engine.digest import config_digest
        from repro.uarch.config import power5

        root = tmp_path / "cache"
        seeded = PersistentCache(root)
        digest = config_digest(power5())
        seeded.store_result_payload("fasta", "baseline", digest, {"x": 1})
        good = seeded.result_path("fasta", "baseline", digest)
        orphan = good.with_name(f".{good.name}.tmp-31337")
        orphan.write_bytes(b"partial")
        corrupt = good.with_name("corrupt.json")
        corrupt.write_text("{ nope", encoding="utf-8")

        assert main(["cache", "gc", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "removed 1 orphaned tmp file" in out
        assert "quarantined 1 corrupt entry" in out
        assert not orphan.exists()
        assert not corrupt.exists()
        assert good.exists()

    def test_stats_reports_quarantine(self, tmp_path, capsys):
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        out = capsys.readouterr().out
        assert "quarantined entries" in out
        assert "trace entries" in out


class TestRunsCommand:
    @pytest.fixture(autouse=True)
    def _restore_global_cache(self):
        from repro.engine import cache as cache_module

        original = cache_module._active_cache
        yield
        cache_module._active_cache = original

    @staticmethod
    def seed_journal(root, done, complete=False, run_id=None):
        from repro.engine.digest import point_key
        from repro.engine.journal import RunJournal
        from repro.uarch.config import power5

        points = [
            (app, "baseline", power5())
            for app in ("blast", "clustalw", "fasta", "hmmer")
        ]
        journal = RunJournal.create(root, points, jobs=2, run_id=run_id)
        for app, variant, config in points[:done]:
            journal.record_point_done(
                point_key(app, variant, config), "d" * 64
            )
        if complete:
            journal.record_complete(0)
        journal.close()
        return journal.run_id

    def test_listing_shows_status_counts_and_hint(self, tmp_path, capsys):
        root = tmp_path / "cache"
        stopped = self.seed_journal(root, done=2, run_id="r-stopped")
        finished = self.seed_journal(
            root, done=4, complete=True, run_id="r-finished"
        )
        assert main(["runs", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert stopped in out and finished in out
        assert "resumable" in out and "complete" in out
        assert "repro resume <run>" in out

    def test_porcelain_is_tab_separated(self, tmp_path, capsys):
        root = tmp_path / "cache"
        run_id = self.seed_journal(root, done=2, run_id="r-porcelain")
        assert main(
            ["runs", "--cache-dir", str(root), "--porcelain"]
        ) == 0
        line = capsys.readouterr().out.strip()
        # Stable field order; new fields append at the END so positional
        # consumers (the CI awk scripts key on $2) keep working.
        (run, status, done, failed, points, age, batched, streamed,
         workers) = line.split("\t")
        assert run == run_id
        assert status == "resumable"
        assert (done, failed, points) == ("2", "0", "4")
        assert float(age) >= 0.0
        assert batched == "0"  # never batched: appended field stays 0
        assert streamed == "0"
        assert workers == "0"  # no worker_stats records yet

    def test_porcelain_pads_missing_fields(self):
        from repro.cli import _porcelain_row

        assert _porcelain_row("r", None, 0, "x") == "r\t-\t0\tx"

    def test_corrupt_neighbour_does_not_abort_listing(
        self, tmp_path, capsys
    ):
        """Satellite fix: one damaged journal renders as a ``corrupt``
        row; its neighbours still list, and no warning leaks to the
        terminal."""
        import warnings as _warnings

        root = tmp_path / "cache"
        good = self.seed_journal(root, done=2, run_id="r-good")
        bad = (root / "runs" / "r-broken.jsonl")
        bad.write_bytes(b"{garbage\n{more garbage\n")
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")  # any escape fails the test
            assert main(
                ["runs", "--cache-dir", str(root), "--porcelain"]
            ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        by_run = {line.split("\t")[0]: line.split("\t") for line in lines}
        assert by_run[good][1] == "resumable"
        assert by_run["r-broken"][1] == "corrupt"

    def test_empty_listing(self, tmp_path, capsys):
        assert main(["runs", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "no run journals" in capsys.readouterr().out

    def test_prune_keeps_resumable_unless_forced(self, tmp_path, capsys):
        from repro.engine.journal import list_runs

        root = tmp_path / "cache"
        self.seed_journal(root, done=2, run_id="r-keep")
        self.seed_journal(root, done=4, complete=True, run_id="r-drop")
        assert main(["runs", "prune", "--cache-dir", str(root)]) == 0
        assert "pruned 1 journal(s)" in capsys.readouterr().out
        assert [s.run_id for s in list_runs(root)] == ["r-keep"]
        assert main(
            ["runs", "prune", "--cache-dir", str(root),
             "--include-resumable"]
        ) == 0
        assert list_runs(root) == []

    def test_runs_requires_the_persistent_cache(self, capsys):
        from repro.engine.cache import use_cache_dir

        use_cache_dir(None)  # persistence off
        assert main(["runs"]) == 1
        assert "persistent cache" in capsys.readouterr().err


class TestResumeCommand:
    @pytest.fixture(autouse=True)
    def _restore_global_cache(self):
        from repro.engine import cache as cache_module

        original = cache_module._active_cache
        yield
        cache_module._active_cache = original

    def test_resume_replays_a_finished_run(self, tmp_path, capsys):
        from repro.engine.cache import use_cache_dir
        from repro.engine.engine import Engine
        from repro.uarch.config import power5

        root = tmp_path / "cache"
        use_cache_dir(root)
        engine = Engine(cache_dir=root)
        engine.characterize_many(
            [("fasta", "baseline", power5())], jobs=1, run_id="cli-run"
        )
        assert main(
            ["resume", "cli-run", "--cache-dir", str(root),
             "--no-telemetry"]
        ) == 0
        out = capsys.readouterr().out
        assert "run cli-run" in out
        assert "1 replayed" in out
        assert "0 re-submitted" in out

    def test_resume_unknown_run_fails(self, tmp_path, capsys):
        assert main(
            ["resume", "no-such-run",
             "--cache-dir", str(tmp_path / "cache")]
        ) == 1
        assert "no journal" in capsys.readouterr().err


class TestNetworkedWorkerJournal:
    """Journals written by earlier builds still load, list and resume:
    the former networked workers' (``repro work --url``)
    ``worker_stats`` records carry resilience counters that no current
    writer emits, and runs from before the ``counters`` record carry
    per-feature counter records."""

    @pytest.fixture(autouse=True)
    def _restore_global_cache(self):
        from repro.engine import cache as cache_module

        original = cache_module._active_cache
        yield
        cache_module._active_cache = original

    @staticmethod
    def _old_journal(root, run_id, records):
        """A one-point fasta run journaled by hand: its ``run_start``
        header, then ``records(key, done)``, where ``done`` is a
        ``point_done`` record whose result exists in the cache."""
        import json

        from repro.engine import serialize
        from repro.engine.cache import use_cache_dir
        from repro.engine.digest import (
            config_digest,
            result_payload_digest,
            sim_source_digest,
            sweep_digest,
        )
        from repro.engine.engine import Engine
        from repro.engine.journal import journal_path
        from repro.uarch.config import power5

        use_cache_dir(root)
        config = power5()
        result = Engine(cache_dir=root).characterize(
            "fasta", "baseline", config
        )
        key = {
            "app": "fasta",
            "variant": "baseline",
            "config_digest": config_digest(config),
        }
        header = {
            "record": "run_start", "schema": 1, "run_id": run_id,
            "created": 1_700_000_000.0, "jobs": 2,
            "source_digest": sim_source_digest(),
            "sweep_digest": sweep_digest(
                [("fasta", "baseline", key["config_digest"])]
            ),
            "points": [{**key, "config": serialize.config_to_dict(config)}],
        }
        done = {
            "record": "point_done", **key,
            "result_digest": result_payload_digest(
                serialize.characterisation_to_dict(result)
            ),
        }
        path = journal_path(root, run_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "".join(
                json.dumps(record) + "\n"
                for record in [header, *records(key, done)]
            ),
            encoding="utf-8",
        )

    def test_old_journal_lists_and_resumes(self, tmp_path, capsys):
        from repro.engine.journal import load_run

        root = tmp_path / "cache"
        created = 1_700_000_000.0
        self._old_journal(root, "net-run", lambda key, done: [
            {"record": "point_claimed", **key, "worker": "net-a",
             "time": created + 1.0, "expires": created + 31.0},
            {"record": "point_heartbeat", **key, "worker": "net-a",
             "time": created + 11.0, "expires": created + 41.0},
            done,
            {"record": "worker_stats", "run_id": "net-run",
             "worker": "net-a", "claims": 1, "claim_conflicts": 0,
             "claim_steals": 0, "heartbeats": 1, "released": 0,
             "lost_leases": 0, "net_retries": 3, "breaker_trips": 1,
             "degraded_ms": 1250, "remote_hits": 2, "remote_misses": 1,
             "remote_pushes": 1, "drained_pushes": 1},
        ])

        state = load_run(root, "net-run")
        assert state.corrupt is None
        assert state.workers["net-a"]["degraded_ms"] == 1250

        assert main(
            ["runs", "--cache-dir", str(root), "--porcelain"]
        ) == 0
        rows = {
            line.split("\t")[0]: line.split("\t")
            for line in capsys.readouterr().out.splitlines()
        }
        assert rows["net-run"][1] == "resumable"
        assert rows["net-run"][8] == "1"  # Workers

        assert main(
            ["resume", "net-run", "--cache-dir", str(root),
             "--no-telemetry"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 replayed" in out
        assert "0 re-submitted" in out

    def test_legacy_counter_records_list_and_resume(self, tmp_path, capsys):
        """``batch_stats``, ``stream_stats`` and ``accel_stats`` records,
        written before the ``counters`` record, read as counters: the
        listing shows what it showed when they were current."""
        from repro.engine.journal import load_run

        root = tmp_path / "cache"
        self._old_journal(root, "legacy-run", lambda key, done: [
            done,
            {"record": "batch_stats", "run_id": "legacy-run", "groups": 1,
             "points": 3, "vectorized": 3, "fallback": 0,
             "decode_reuse_hits": 2},
            {"record": "stream_stats", "run_id": "legacy-run",
             "streams": 2, "segments_produced": 5,
             "segments_consumed": 5, "handoffs": 5, "queue_peak": 2,
             "peak_segment_bytes": 1900544},
            {"record": "accel_stats", "run_id": "legacy-run",
             "points": 1, "batched": 0, "bioseal_points": 1,
             "aphmm_points": 0, "offload_cycles": 900,
             "transfer_cycles": 40},
        ])

        state = load_run(root, "legacy-run")
        assert state.corrupt is None
        assert state.counters["batch.points"] == 3
        assert state.counters["stream.segments_consumed"] == 5
        assert state.counters["stream.queue_peak"] == 2
        assert state.counters["accel.offload_cycles"] == 900

        assert main(
            ["runs", "--cache-dir", str(root), "--porcelain"]
        ) == 0
        fields = capsys.readouterr().out.strip().split("\t")
        assert len(fields) == 9
        del fields[5]  # age
        assert fields == [
            "legacy-run", "resumable", "1", "0", "1", "3", "5", "0",
        ]
        assert main(["runs", "--cache-dir", str(root)]) == 0
        assert "3 in 1" in capsys.readouterr().out  # Batched

        assert main(
            ["resume", "legacy-run", "--cache-dir", str(root),
             "--no-telemetry"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 replayed" in out
        assert "0 re-submitted" in out


class TestWorkCommand:
    @pytest.fixture(autouse=True)
    def _restore_global_cache(self):
        from repro.engine import cache as cache_module
        from repro.engine import engine as engine_module

        original_cache = cache_module._active_cache
        original_engine = engine_module._default_engine
        yield
        cache_module._active_cache = original_cache
        engine_module._default_engine = original_engine

    def test_work_drains_and_seals_a_run(self, tmp_path, capsys):
        from repro.service.runner import create_run
        from repro.uarch.config import power5

        root = tmp_path / "cache"
        run_id = create_run(
            root, [("blast", "baseline", power5())], workers=1
        )
        assert main(
            ["work", run_id, "--cache-dir", str(root),
             "--worker-id", "cli-worker"]
        ) == 0
        out = capsys.readouterr().out
        assert "worker cli-worker drained" in out
        assert "1 completed, 0 failed" in out
        # The draining worker sealed the run: no longer resumable.
        assert main(
            ["runs", "--cache-dir", str(root), "--porcelain"]
        ) == 0
        fields = capsys.readouterr().out.strip().split("\t")
        assert fields[0] == run_id
        assert fields[1] == "complete"
        assert fields[8] == "1"  # one worker_stats record

    def test_work_unknown_run_fails(self, tmp_path, capsys):
        assert main(
            ["work", "no-such-run", "--cache-dir", str(tmp_path / "c")]
        ) == 1
        assert "no journal" in capsys.readouterr().err
