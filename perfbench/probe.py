"""Batched split probe: frontend pass vs. per-config timing replay.

``simulate_batched`` runs one shared frontend pass per group and then
one timing replay per config, so its time at group size ``n`` is about
``frontend + n * replay``. Timing it at group size 2 and at the full
12-config grid gives the replay cost per config (the slope) and the
frontend pass (the intercept). The two sizes are timed back to back,
several times, and the slope is the median of the paired differences:
the host's speed drifts by tens of percent within seconds, so sizes
timed apart would not measure the same machine. The probe runs once
with the native replay kernel and once with ``REPRO_NATIVE=off``; the
frontend pass is the same code either way, so only the slope is
reported twice.

The traces are the ``config-sweep`` workload's decoded ``blast``
baseline kernel and background traces (the smallest pair), read from
the measured run's trace store, and the configs are the seed's 12-point
timing grid on the stock frontend.
"""

from __future__ import annotations

import os
import statistics
import time

PROBE_APP = "blast"


def _timed(traces, configs, native: bool) -> float:
    from repro.uarch.batched import simulate_batched

    started = time.perf_counter()
    for trace in traces:
        outcome = simulate_batched(trace, configs)
        if outcome.native != native or not all(outcome.batched):
            raise RuntimeError(
                f"probe group of {len(configs)} did not take the "
                f"{'native' if native else 'Python'} batched replay"
            )
    return time.perf_counter() - started


def split(traces, configs, repeats: int, native: bool) -> tuple[float, float]:
    """(frontend seconds, replay seconds per config) over ``traces``."""
    pairs = [(_timed(traces, configs[:2], native),
              _timed(traces, configs, native)) for _ in range(repeats)]
    slope = statistics.median(
        full - small for small, full in pairs) / (len(configs) - 2)
    small = statistics.median(small for small, _ in pairs)
    return small - 2 * slope, slope


def run_probe(cache_dir, seed: int) -> dict[str, float]:
    """Probe metrics; raises when a figure cannot be measured."""
    from repro.engine.cache import PersistentCache

    from perfbench.workloads import sweep_points

    cache = PersistentCache(cache_dir)
    traces = [cache.load_trace(PROBE_APP, "baseline"),
              cache.load_trace(PROBE_APP, "~background")]
    if any(trace is None for trace in traces):
        raise RuntimeError("probe traces are missing from the trace store")
    configs = [config for app, variant, config in sweep_points(seed)
               if app == PROBE_APP and variant == "baseline"
               and config.btac is None]
    frontend_s, replay_s = split(traces, configs, repeats=9, native=True)
    os.environ["REPRO_NATIVE"] = "off"
    try:
        _, replay_py_s = split(traces, configs, repeats=1, native=False)
    finally:
        del os.environ["REPRO_NATIVE"]
    if min(frontend_s, replay_s, replay_py_s) <= 0:
        raise RuntimeError(
            "batched split probe measured a non-positive cost: "
            f"frontend {frontend_s:.4f} s, replay {replay_s * 1e3:.3f} ms, "
            f"python replay {replay_py_s * 1e3:.3f} ms"
        )
    return {
        "uarch.batched.frontend_s": frontend_s,
        "uarch.batched.replay_ms_per_config": replay_s * 1e3,
        "uarch.batched.replay_ms_per_config_py": replay_py_s * 1e3,
        "uarch.batched.probe_events": sum(len(trace) for trace in traces),
    }
