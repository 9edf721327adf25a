"""Parallel output is byte-identical to serial output.

Runs Table I twice through the engine — once serially, once fanned out
over four worker processes — with persistence disabled so the parallel
run really simulates in the pool, and asserts the rendered tables and
the raw data dictionaries are identical. Pool workers split the CPUs
between their replay threads.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import cache as cache_module
from repro.engine import engine as engine_module
from repro.engine.engine import Engine
from repro.engine.scheduler import _pool_context, _worker_init
from repro.engine.telemetry import SOURCE_SIMULATED
from repro.experiments import table1
from repro.experiments.common import prefetch_points
from repro.uarch import batched


def _run_table1(jobs: int):
    """Table I through a fresh engine with persistence off."""
    cache_module.use_cache_dir(None)
    engine = Engine(cache_dir=None)
    engine_module._default_engine = engine
    prefetch_points(table1.points(), jobs=jobs)
    return table1.run(), engine


class TestParallelDeterminism:
    def test_jobs4_matches_jobs1(self, restore_globals):
        serial, serial_engine = _run_table1(jobs=1)
        parallel, parallel_engine = _run_table1(jobs=4)

        assert parallel.render() == serial.render()
        assert parallel.data == serial.data

        # The parallel run went through the pool: its four points were
        # simulated by workers and merged back (none served from this
        # process's memo during the prefetch).
        assert parallel_engine.stats.jobs == 4
        assert len(parallel_engine.stats.points) == len(table1.points())
        assert all(
            point.source == SOURCE_SIMULATED
            for point in parallel_engine.stats.points
        )
        assert serial_engine.stats.jobs == 1

    def test_duplicate_points_simulated_once(self, restore_globals):
        cache_module.use_cache_dir(None)
        engine = Engine(cache_dir=None)
        points = table1.points()[:1] * 3
        results = engine.characterize_many(points, jobs=2)
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        # One simulation; the two duplicate requests are memo hits —
        # and nothing else is (no synthetic hit per requested point).
        assert len(engine.stats.points) == 1
        assert engine.stats.memo_hits == 2

    def test_fanout_of_unique_points_records_no_memo_hits(
        self, restore_globals
    ):
        """Satellite fix: the ordered return is served straight from the
        memo — it must not book one synthetic hit per requested point."""
        cache_module.use_cache_dir(None)
        engine = Engine(cache_dir=None)
        points = table1.points()
        results = engine.characterize_many(points, jobs=2)
        assert [result.app for result in results] == [
            app for app, _variant, _config in points
        ]
        assert engine.stats.memo_hits == 0
        assert len(engine.stats.points) == len(points)


def _replay_budget(_task) -> int:
    return batched.replay_threads()


class TestWorkerThreadBudget:
    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_workers_split_the_cpus(self, workers):
        """Each of N pool workers replays on max(1, cpus // N) threads;
        the parent keeps one thread per CPU."""
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context(),
            initializer=_worker_init, initargs=(False, workers),
        ) as pool:
            budgets = set(pool.map(_replay_budget, range(2 * workers)))
        assert budgets == {max(1, batched.host_cpus() // workers)}
        assert batched.replay_threads() == batched.host_cpus()
