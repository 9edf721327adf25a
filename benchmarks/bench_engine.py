"""Engine benchmarks: cold cache, warm cache, fan-out, batched sweeps.

A fig3-sized sweep (4 apps x 6 variants = 24 design points) driven
through the engine:

* ``cold_jobs1`` — empty cache, serial: every point simulated.
* ``warm`` — same cache directory, fresh process state: every point
  served from the persistent store (asserted >= 5x faster than cold).
* ``jobs2`` / ``jobs4`` — empty cache, fanned out over worker
  processes (the >= 2x jobs=4 speedup is asserted only on machines
  with at least four cores).
* ``batched`` — a 12-config design-space sweep over one workload
  trace, batched (one shared trace pass) vs point-at-a-time (each
  point a one-config group of its own). Asserts digest equality and
  prints the ratio; batched throughput is tracked end to end by the
  ``config-sweep`` workload of ``perfbench/run.py``. Note fig3's own
  points all share *one* config across apps, so its per-trace groups
  are singletons; the batched sweep is the many-configs-per-trace
  shape (timing sweeps, fig4/fig5-style).

Run as a script for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_engine.py --smoke

which runs a small batched sweep against a sequential one and verifies
the result digests are identical, then reruns the batched sweep on the
trace store the first two primed and a fresh result store: it must
match, and it must leave the perf layer's trace memos empty, because a
unit streams its traces from the store instead of decoding them whole.
"""

import os
import sys
import time
from dataclasses import replace

import pytest

from repro.engine import cache as cache_module
from repro.engine.engine import Engine
from repro.experiments import fig3
from repro.perf.characterize import (
    _background_cache,
    _kernel_trace_cache,
    clear_trace_caches,
)
from repro.uarch.config import power5

POINTS = fig3.points()


def _batch_points(app="blast", fxus=(1, 2, 3, 4), penalties=(2, 3, 4)):
    """A timing design-space sweep sharing one workload trace.

    Every config keeps the same predictor/BTAC/L1D (one frontend
    group) and varies only timing parameters, so the whole sweep rides
    a single shared trace pass when batched.
    """
    return [
        (app, "baseline",
         replace(power5(), fxu_count=fxu, taken_branch_penalty=penalty))
        for fxu in fxus
        for penalty in penalties
    ]

#: Cross-benchmark state: the cold run's cache dir and wall time.
_STATE: dict = {}


@pytest.fixture(autouse=True)
def _restore_active_cache():
    original = cache_module._active_cache
    yield
    cache_module._active_cache = original
    clear_trace_caches()


def _sweep(cache_root, jobs, walls):
    """One full sweep from cold in-memory state; wall time appended."""
    clear_trace_caches()
    started = time.perf_counter()
    engine = Engine(cache_dir=cache_root)
    engine.characterize_many(POINTS, jobs=jobs)
    walls.append(time.perf_counter() - started)
    return engine


def bench_engine_cold_jobs1(benchmark, tmp_path_factory):
    root = tmp_path_factory.mktemp("engine-cold")
    walls: list[float] = []
    engine = benchmark.pedantic(
        _sweep, args=(root, 1, walls), rounds=1, iterations=1
    )
    assert engine.stats.cache.result_misses == len(POINTS)
    _STATE["root"] = root
    _STATE["cold_seconds"] = min(walls)
    print()
    print(engine.stats.render())


def bench_engine_warm(benchmark):
    """Same cache dir, fresh process state: pure disk-hit sweep."""
    if "root" not in _STATE:
        pytest.skip("cold benchmark did not run first")
    walls: list[float] = []
    engine = benchmark.pedantic(
        _sweep, args=(_STATE["root"], 1, walls), rounds=3, iterations=1
    )
    assert engine.stats.cache.result_hits == len(POINTS)
    warm = min(walls)
    assert warm * 5.0 <= _STATE["cold_seconds"], (
        f"warm sweep {warm:.2f}s is not >=5x faster than the "
        f"cold sweep {_STATE['cold_seconds']:.2f}s"
    )


def bench_cache_gc(benchmark, tmp_path_factory):
    """Self-healing sweep over a populated store with planted damage.

    The store holds 64 synthetic result payloads; each round re-plants
    eight orphaned ``.tmp-*`` files and four corrupt entries, then
    ``gc()`` must sweep the damage without touching valid entries.
    """
    from repro.engine.cache import PersistentCache

    root = tmp_path_factory.mktemp("engine-gc")
    cache = PersistentCache(root)
    payload = {"schema": 1, "value": list(range(64))}
    for index in range(64):
        cache.store_result_payload("bench", f"v{index}", "0" * 12, payload)
    valid = cache.stats()["result_entries"]

    def plant():
        for index in range(8):
            orphan = cache.version_root / f".r{index}.json.tmp-{index}"
            orphan.write_bytes(b"partial")
        for index in range(4):
            bad = cache.version_root / f"corrupt{index}.json"
            bad.write_text("{ nope", encoding="utf-8")

    report = benchmark.pedantic(
        lambda: cache.gc(), setup=plant, rounds=5, iterations=1
    )
    assert report["tmp_removed"] == 8
    assert report["quarantined"] == 4
    assert cache.stats()["result_entries"] == valid


def bench_engine_batched(benchmark, tmp_path_factory):
    """Batched multi-config sweep vs sequential, one shared trace.

    12 timing configs of one (app, variant): sequential runs 12
    one-config groups, each walking the trace alone; batched decodes
    and frontend-walks it once and replays 12 timing passes. Both legs
    run the native kernel, so the printed ratio is no speed gate.
    """
    from repro.engine.scheduler import _result_digest

    points = _batch_points()

    def sweep(batch):
        clear_trace_caches()
        root = tmp_path_factory.mktemp(
            f"engine-{'batched' if batch else 'sequential'}"
        )
        started = time.perf_counter()
        engine = Engine(cache_dir=root)
        results = engine.characterize_many(points, jobs=1, batch=batch)
        wall = time.perf_counter() - started
        return engine, results, wall

    _, sequential_results, sequential_wall = sweep(False)
    engine, batched_results, batched_wall = benchmark.pedantic(
        lambda: sweep(True), rounds=1, iterations=1
    )
    assert [_result_digest(r) for r in batched_results] == [
        _result_digest(r) for r in sequential_results
    ], "batched sweep results are not byte-identical to sequential"
    assert engine.stats.counters["batch.points"] == len(points)
    speedup = sequential_wall / batched_wall
    print(
        f"\nbatched sweep: {len(points)} configs on one trace | "
        f"sequential {sequential_wall:.2f}s | batched {batched_wall:.2f}s"
        f" | speedup {speedup:.2f}x"
    )


@pytest.mark.parametrize("jobs", [2, 4])
def bench_engine_parallel(benchmark, jobs, tmp_path_factory):
    walls: list[float] = []

    def run():
        root = tmp_path_factory.mktemp(f"engine-jobs{jobs}")
        return _sweep(root, jobs, walls)

    engine = benchmark.pedantic(run, rounds=1, iterations=1)
    assert engine.stats.jobs == jobs
    assert len(engine.stats.points) == len(POINTS)
    if "cold_seconds" not in _STATE or (os.cpu_count() or 1) < 4:
        return  # speedup is only meaningful with real cores behind it
    wall = min(walls)
    assert wall <= _STATE["cold_seconds"]
    if jobs == 4:
        assert wall * 2.0 <= _STATE["cold_seconds"], (
            f"jobs=4 sweep {wall:.2f}s is not >=2x faster than the "
            f"serial sweep {_STATE['cold_seconds']:.2f}s"
        )


def _smoke() -> int:
    """CI smoke: small batched sweep == sequential sweep, digest-exact;
    a batched rerun on the primed trace store matches and holds no
    decoded trace."""
    import tempfile

    from repro.engine.scheduler import _result_digest

    points = _batch_points(app="clustalw", fxus=(1, 2, 3, 4),
                           penalties=(2, 4))
    # One trace store for every sweep; each sweep gets its own results.
    cache_module.use_cache_dir(tempfile.mkdtemp(prefix="repro-bench-traces-"))

    def sweep(batch):
        clear_trace_caches()
        root = tempfile.mkdtemp(prefix="repro-bench-smoke-")
        started = time.perf_counter()
        engine = Engine(cache_dir=root)
        results = engine.characterize_many(points, jobs=1, batch=batch)
        return engine, [_result_digest(r) for r in results], \
            time.perf_counter() - started

    _, sequential, sequential_wall = sweep(False)
    engine, batched, batched_wall = sweep(True)
    if batched != sequential:
        print("FAIL: batched sweep digests differ from sequential")
        return 1
    counters = engine.stats.counters
    print(
        f"{len(points)} configs on one clustalw trace | "
        f"sequential {sequential_wall:.2f}s | batched {batched_wall:.2f}s"
        f" | groups {counters.get('batch.groups', 0)} | "
        f"vectorized {counters.get('batch.vectorized', 0)} | "
        f"fallback {counters.get('batch.fallback', 0)}"
    )
    print("OK: batched sweep is digest-identical to sequential")
    _, primed, primed_wall = sweep(True)
    if primed != batched:
        print("FAIL: batched sweep on the primed trace store differs")
        return 1
    held = sorted(_kernel_trace_cache) + sorted(_background_cache)
    if held:
        print(f"FAIL: the primed-store sweep left decoded traces in "
              f"memory: {held} (streaming is the default; is "
              f"REPRO_STREAM off?)")
        return 1
    print(f"OK: primed-store batched sweep matches ({primed_wall:.2f}s) "
          f"and holds no decoded trace")
    return 0


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        sys.exit(_smoke())
    print("usage: python benchmarks/bench_engine.py --smoke", file=sys.stderr)
    sys.exit(2)
