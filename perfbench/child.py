"""The processes the benchmark starts: set-up and the measured command.

``python -m perfbench.child <mode> ...`` with ``PYTHONPATH=src``:

``setup <workload> <state-dir> [<kept-cache>]``
    Builds one start state: an empty cache (``cold-all``), a copy of the
    cache a cold run left (``warm-all``) or a trace store primed with the
    sweep's traces from that cache and no results (``config-sweep``),
    then builds the native replay kernel into the state's temp directory
    with a two-config ``simulate_batched`` call on a tiny trace, so the
    first-run compile lands in set-up time.

``experiments <state-dir> <out.json> [<spans.json>]``
    ``python -m repro.experiments all --jobs 1`` on the state's cache,
    run through the program's own ``main``. The experiment results are kept
    so the parent can digest the rendered tables and read Figure 6 and
    Table I.

``sweep <state-dir> <seed> <out.json> [<spans.json>]``
    ``Engine(cache_dir=...).characterize_many(points, jobs=1)`` over the
    seeded ``config-sweep`` grid.

With a spans path the layer wrappers are installed after the program
is imported, and the recorded spans are written at exit.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path


def _write(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def build_native() -> bool:
    """Compile (or find) the replay kernel; True when it is usable."""
    from repro.uarch.batched import simulate_batched
    from repro.uarch.config import power5
    from repro.uarch.synthetic import generate_trace

    base = power5()
    outcome = simulate_batched(
        generate_trace(256, seed=1), [base, base.with_fxus(4)]
    )
    return bool(outcome.native)


def setup(workload: str, state: str, kept: str | None = None) -> None:
    cache = Path(state) / "cache"
    if workload == "warm-all":
        shutil.copytree(kept, cache)
    else:
        cache.mkdir(parents=True)
    if workload == "config-sweep":
        from repro.engine.cache import PersistentCache

        from perfbench.workloads import SWEEP_APPS, SWEEP_VARIANTS

        source, target = PersistentCache(kept), PersistentCache(cache)
        for app in SWEEP_APPS:
            for variant in SWEEP_VARIANTS + ("~background",):
                path = target.trace_path(app, variant)
                path.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(source.trace_path(app, variant), path)
    native = build_native()
    _write(str(Path(state) / "setup.json"), {"native": native})


def _finish(recorder, spans_path: str | None, payload: dict) -> dict:
    if recorder is not None:
        from perfbench.layers import trace_memo_mb

        payload["trace_memo_mb"] = trace_memo_mb()
        recorder.write(spans_path)
    return payload


def _recorder(spans_path: str | None):
    if spans_path is None:
        return None
    from perfbench.layers import install
    from perfbench.spans import Recorder

    recorder = Recorder()
    install(recorder)
    return recorder


def experiments(state: str, out: str, spans_path: str | None = None) -> int:
    started = time.perf_counter()
    import repro.experiments.__main__ as cli

    import_s = time.perf_counter() - started
    recorder = _recorder(spans_path)
    from repro.experiments import EXPERIMENTS

    results = {}

    def keep(name, run):
        def call():
            results[name] = run()
            return results[name]

        call.__module__ = run.__module__
        return call

    for name, run in list(EXPERIMENTS.items()):
        EXPERIMENTS[name] = keep(name, run)
    code = cli.main(
        ["all", "--jobs", "1", "--cache-dir", str(Path(state) / "cache")]
    )
    # fig1's table is a host-time measurement: never part of a digest.
    tables = hashlib.sha256()
    for name, result in results.items():
        if name != "fig1":
            tables.update(result.render().encode())
    payload = {
        "exit_code": code,
        "import_s": import_s,
        "experiments": list(results),
        "tables_digest": tables.hexdigest(),
        "fig6_average": results["fig6"].data["average"]
        if "fig6" in results else None,
        "table1_ipc": {app: row["ipc"]
                       for app, row in results["table1"].data.items()}
        if "table1" in results else None,
    }
    _write(out, _finish(recorder, spans_path, payload))
    return code


def sweep(state: str, seed: int, out: str,
          spans_path: str | None = None) -> int:
    started = time.perf_counter()
    from repro.engine.cache import use_cache_dir
    from repro.engine.engine import Engine

    import_s = time.perf_counter() - started
    recorder = _recorder(spans_path)
    from perfbench.workloads import sweep_points

    points = sweep_points(seed)
    cache = Path(state) / "cache"
    # The perf layer's trace store is the process-wide cache; an engine's
    # own cache_dir only holds results. Both live in the primed state.
    use_cache_dir(cache)
    engine = Engine(cache_dir=cache)
    results = engine.characterize_many(points, jobs=1, on_error="keep_going")
    payload = {
        "exit_code": 0,
        "import_s": import_s,
        "points": len(points),
        "failures": sum(1 for result in results if result is None),
    }
    _write(out, _finish(recorder, spans_path, payload))
    return 0


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "setup":
        setup(*rest)
        return 0
    if mode == "experiments":
        return experiments(*rest)
    if mode == "sweep":
        state, seed, out, *spans = rest
        return sweep(state, int(seed), out, *spans)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
