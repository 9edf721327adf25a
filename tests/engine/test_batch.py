"""Batched multi-config dispatch: grouping, equivalence, durability.

The scheduler folds pending points that share a workload trace into
one dispatch unit per ``(app, variant)`` group; these tests pin the
contract that batching is *invisible* except for throughput and
telemetry — byte-identical results and cache entries, one journal
record per point, per-point (never batch-level) failures.
"""

import pytest

from repro.engine import engine as engine_module
from repro.engine import scheduler
from repro.engine.engine import Engine
from repro.engine.journal import load_run
from repro.engine.scheduler import (
    _result_digest,
    _units,
    group_by_trace,
    resolve_batch,
)
from repro.engine.telemetry import SOURCE_SIMULATED
from repro.errors import SweepError
from repro.experiments import ablations, ext_phylip, fig2
from repro.perf.characterize import characterize
from repro.uarch.config import power5
from repro.uarch.core import Core

from tests.engine import faults

APP = "fasta"


def _points(fxus=(2, 3, 4)):
    return [(APP, "baseline", power5().with_fxus(f)) for f in fxus]


def _two_groups():
    """Two trace-sharing groups, so a jobs=2 sweep actually pools."""
    return _points() + [("hmmer", "baseline", power5()),
                        ("hmmer", "baseline", power5().with_fxus(3))]


def _digests(results):
    return [_result_digest(result) for result in results]


def batch_counters(counters):
    return {
        name: value for name, value in counters.items()
        if name.startswith("batch.")
    }


class TestResolveBatch:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert resolve_batch() is True

    @pytest.mark.parametrize("value", ["off", "0", "false", "no"])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BATCH", value)
        assert resolve_batch() is False

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "off")
        assert resolve_batch(True) is True
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert resolve_batch(False) is False


class TestGrouping:
    KEYS = [("a", "baseline", "d1"), ("a", "baseline", "d2"),
            ("b", "baseline", "d3")]
    #: Pending points as the scheduler holds them: key -> config.
    PENDING = dict(zip(KEYS, (power5(), power5().with_fxus(3), power5())))

    def test_group_by_trace_keys_on_app_variant(self):
        groups = group_by_trace(self.PENDING)
        assert list(groups) == [("a", "baseline"), ("b", "baseline")]
        assert [len(g) for g in groups.values()] == [2, 1]

    def test_units_fold_each_app_variant(self):
        (pair, single) = _units(self.PENDING, batch=True)
        assert (pair.app, pair.variant) == ("a", "baseline")
        assert pair.keys == self.KEYS[:2]
        assert pair.configs == [power5(), power5().with_fxus(3)]
        assert single.keys == self.KEYS[2:]
        # A failed unit of several points splits into one-point units,
        # none of them billed.
        pair.attempts = 1
        parts = pair.split()
        assert [part.keys for part in parts] == [
            [key] for key in self.KEYS[:2]
        ]
        assert [part.attempts for part in parts] == [0, 0]

    def test_singleton_groups_stay_plain_tasks(self):
        """A singleton group is a one-point unit: the same unit that
        batching off makes of every point."""
        batched = _units(self.PENDING, batch=True)
        unbatched = _units(self.PENDING, batch=False)
        assert [unit.keys for unit in unbatched] == [
            [key] for key in self.KEYS
        ]
        assert batched[1].keys == unbatched[2].keys == [self.KEYS[2]]
        assert batched[1].configs == unbatched[2].configs == [power5()]


class TestBatchedEqualsSequential:
    def test_serial_sweep_digest_identical(self, tmp_path, restore_globals):
        from repro.engine import cache as cache_module

        cache_module.use_cache_dir(tmp_path / "seq")
        sequential = Engine(cache_dir=tmp_path / "seq").characterize_many(
            _points(), jobs=1, batch=False
        )
        cache_module.use_cache_dir(tmp_path / "bat")
        engine = Engine(cache_dir=tmp_path / "bat")
        batched = engine.characterize_many(_points(), jobs=1, batch=True)
        assert _digests(batched) == _digests(sequential)
        assert batch_counters(engine.stats.counters) == {
            "batch.groups": 1,
            "batch.points": 3,
            "batch.vectorized": 3,
            "batch.fallback": 0,
        }

    def test_pool_sweep_digest_identical(self, tmp_path, restore_globals):
        from repro.engine import cache as cache_module

        cache_module.use_cache_dir(tmp_path / "seq")
        sequential = Engine(cache_dir=tmp_path / "seq").characterize_many(
            _points(), jobs=1, batch=False
        )
        cache_module.use_cache_dir(tmp_path / "bat")
        engine = Engine(cache_dir=tmp_path / "bat")
        points = _two_groups()
        batched = engine.characterize_many(points, jobs=2, batch=True)
        assert _digests(batched[:3]) == _digests(sequential)
        # Worker telemetry merged back: one record per point, and both
        # groups' batch counters are visible in the parent.
        assert len(engine.stats.points) == len(points)
        assert engine.stats.counters["batch.groups"] == 2
        assert engine.stats.counters["batch.points"] == 5

    def test_env_kill_switch_disables_batching(
        self, monkeypatch, fresh_engine
    ):
        """Off, every point is its own one-config group."""
        monkeypatch.setenv("REPRO_BATCH", "off")
        results = fresh_engine.characterize_many(_points(), jobs=1)
        assert all(result is not None for result in results)
        assert fresh_engine.stats.counters["batch.groups"] == 3
        assert fresh_engine.stats.counters["batch.points"] == 3

    def test_custom_worker_gets_the_default_units(
        self, fresh_engine, tmp_path, monkeypatch
    ):
        """An instrumented worker is dispatched the units the default
        one is: one per (app, variant), as in the pool sweep above."""
        count_dir = faults.install_counter(tmp_path / "counts", monkeypatch)
        results = scheduler.fan_out(
            fresh_engine, _two_groups(), jobs=2,
            worker=faults.counting_worker, batch=True,
        )
        assert all(result is not None for result in results)
        assert faults.invocation_counts(count_dir) == {
            "fasta_baseline": 1,
            "hmmer_baseline": 1,
        }
        assert fresh_engine.stats.counters["batch.groups"] == 2
        assert fresh_engine.stats.counters["batch.points"] == 5


class TestScalarAnchor:
    """Point-at-a-time sweeps run one-config kernel groups; the scalar
    loop, through unstreamed ``characterize``, is their reference."""

    POINTS = [
        (app, variant, config)
        for app in ("clustalw", "fasta")
        for variant in ("baseline", "combination")
        for config in (power5(), power5().with_btac())
    ]

    def test_unbatched_sweep_matches_scalar_characterize(
        self, fresh_engine
    ):
        results = fresh_engine.characterize_many(
            self.POINTS, jobs=1, batch=False
        )
        scalar = [
            characterize(app, variant, config, stream=False)
            for app, variant, config in self.POINTS
        ]
        assert _digests(results) == _digests(scalar)

    @pytest.mark.parametrize("mode", ("native", "python"))
    def test_one_config_callers_skip_the_scalar_loop(
        self, mode, monkeypatch, fresh_engine
    ):
        """fig2, ext_phylip, the interleaving ablation and an engine
        point all run in the shared pass and replay, with the kernel
        and under REPRO_NATIVE=off."""
        if mode == "python":
            monkeypatch.setenv("REPRO_NATIVE", "off")
        else:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)

        def scalar_loop(*args, **kwargs):
            raise AssertionError("entered the scalar loop")

        monkeypatch.setattr(Core, "_simulate_columnar_segment", scalar_loop)
        monkeypatch.setattr(Core, "_simulate_events", scalar_loop)
        monkeypatch.setattr(engine_module, "_default_engine", fresh_engine)
        fig2.run()
        ext_phylip.run()
        ablations.interleaving()
        # The fresh cache held none of their artifacts: all six simulated.
        assert fresh_engine.stats.counters["artifact.computed"] == 6
        assert "artifact.disk" not in fresh_engine.stats.counters
        fresh_engine.characterize(APP, "combination", power5().with_btac())
        assert fresh_engine.stats.points[-1].source == SOURCE_SIMULATED


class TestCacheAndJournal:
    def test_memo_and_disk_peel_before_batching(self, fresh_engine):
        """Points already cached never re-enter a batch."""
        first = fresh_engine.characterize(APP, "baseline", power5())
        # A one-config call is a one-point group.
        assert fresh_engine.stats.counters["batch.groups"] == 1
        assert fresh_engine.stats.counters["batch.points"] == 1
        results = fresh_engine.characterize_batch(
            APP, "baseline",
            [power5(), power5().with_fxus(3), power5().with_fxus(4)],
        )
        assert results[0] is first
        assert fresh_engine.stats.memo_hits == 1
        # Only the two uncached points went through the second pass.
        assert fresh_engine.stats.counters["batch.groups"] == 2
        assert fresh_engine.stats.counters["batch.points"] == 3

    def test_batched_results_land_in_persistent_cache(
        self, tmp_path, restore_globals
    ):
        from repro.engine import cache as cache_module

        root = tmp_path / "store"
        cache_module.use_cache_dir(root)
        Engine(cache_dir=root).characterize_many(
            _points(), jobs=1, batch=True
        )
        rerun = Engine(cache_dir=root)
        rerun.characterize_many(_points(), jobs=1, batch=True)
        assert rerun.stats.cache.result_hits == 3
        # Nothing left to batch.
        assert "batch.groups" not in rerun.stats.counters

    def test_journal_records_batch_stats_and_per_point_done(
        self, fresh_engine
    ):
        fresh_engine.characterize_many(
            _points(), jobs=1, batch=True, run_id="batchrun"
        )
        state = load_run(fresh_engine.cache.root, "batchrun")
        assert state.complete
        assert len(state.done) == 3  # one point_done per point
        assert batch_counters(state.counters) == {
            "batch.groups": 1,
            "batch.points": 3,
            "batch.vectorized": 3,
        }

    def test_journal_records_only_this_sweeps_counters(self, fresh_engine):
        """The engine's counters accumulate across sweeps; each run's
        journal holds only what its own sweep counted."""
        fresh_engine.characterize_many(
            _points((2, 3, 4)), jobs=1, batch=True, run_id="first"
        )
        fresh_engine.characterize_many(
            _points((5, 6)), jobs=1, batch=True, run_id="second"
        )
        state = load_run(fresh_engine.cache.root, "second")
        assert batch_counters(state.counters) == {
            "batch.groups": 1,
            "batch.points": 2,
            "batch.vectorized": 2,
        }
        assert fresh_engine.stats.counters["batch.points"] == 5

    def test_unbatched_run_journals_one_group_per_point(self, fresh_engine):
        """A --no-batch sweep of N points journals N one-point groups."""
        fresh_engine.characterize_many(
            _points(), jobs=1, batch=False, run_id="plainrun",
        )
        state = load_run(fresh_engine.cache.root, "plainrun")
        assert state.complete
        counters = batch_counters(state.counters)
        assert counters["batch.groups"] == counters["batch.points"] == 3


class TestBatchFailureExplodes:
    def test_bad_group_fails_per_point_not_per_batch(self, fresh_engine):
        """A batch that raises re-runs its points individually, so the
        failures are per-point records naming each config."""
        bad = [("nope", "baseline", power5().with_fxus(f))
               for f in (2, 3)]
        results = fresh_engine.characterize_many(
            bad, jobs=1, batch=True, on_error="keep_going", retries=0,
        )
        assert results == [None, None]
        assert len(fresh_engine.stats.failures) == 2
        digests = {f.config_digest for f in fresh_engine.stats.failures}
        assert len(digests) == 2  # two distinct points, not one batch
        assert "batch.groups" not in fresh_engine.stats.counters

    def test_bad_group_does_not_poison_good_group(self, fresh_engine):
        points = ([("nope", "baseline", power5().with_fxus(f))
                   for f in (2, 3)] + _points())
        with pytest.raises(SweepError):
            fresh_engine.characterize_many(
                points, jobs=1, batch=True, retries=0
            )
        # The good group still completed, batched.
        assert fresh_engine.stats.counters["batch.groups"] == 1
        assert fresh_engine.stats.counters["batch.points"] == 3
        good = fresh_engine.characterize(APP, "baseline", power5())
        assert good is not None
