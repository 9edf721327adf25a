"""Which public entry points of the program are wrapped, and how the
per-layer metrics are derived from the spans they record.

Each wrapper replaces a name where its callers look it up (see
:func:`perfbench.spans.rebind`): ``repro.engine.engine`` imports
``characterize`` and ``fan_out`` by name, ``repro.engine.cache`` the
tracestore functions, and so on. Counts come from what the wrapped
calls return — ``Machine.run``'s step count, ``SimResult.instructions``,
the batched ``info`` dict, bytes written — never from the program's
own telemetry.

A wrapper whose target no longer exists raises at install time, so a
renamed entry point fails the traced run instead of reporting 0.
"""

from __future__ import annotations

import importlib
import os
from pathlib import Path

from perfbench.spans import Recorder, rebind, self_times, wrap_call, wrap_iter

#: The 13 experiments, in the program's presentation order.
EXPERIMENT_IDS = (
    "table1", "fig1", "fig2", "fig3", "table2", "fig4", "fig5", "fig6",
    "ext_phylip", "ext_cmp_llc", "ext_bpred", "ext_accel", "ablations",
)


def _trace_key(path) -> list[str]:
    """``.../traces/<app>/<variant>-<digest>.trace`` -> [app, variant]."""
    path = Path(path)
    return [path.parent.name, path.name.rsplit("-", 1)[0]]


def _point(args, kwargs) -> list[str]:
    return [kwargs.get("app", args[0] if args else ""),
            kwargs.get("variant", args[1] if len(args) > 1 else "baseline")]


def _interp(result, args, kwargs):
    return {"instructions": result}


def _length(key):
    return lambda item, args, kwargs: {key: len(item)}


def _segment_events(result, args, kwargs):
    return {"instructions": len(args[1])}


def _encode(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _decode_whole(result, args, kwargs):
    return {"events": len(result), "decodes": 1,
            "trace": _trace_key(args[0])}


def _decode_open(result, args, kwargs):
    return {"decodes": 1, "trace": _trace_key(args[0])}


def _characterize(result, args, kwargs):
    return {"point": _point(args, kwargs)}


def _characterize_batched(result, args, kwargs):
    _, info = result
    return {"point": _point(args, kwargs), "points": info["points"],
            "vectorized": info["vectorized"]}


def _segment(item, args, kwargs):
    return {"segments": 1}


def _load(result, args, kwargs):
    return {"hit": int(result is not None)}


def _replay(result, args, kwargs):
    return {"branches": result.branches}


def _estimate(result, args, kwargs):
    return {"estimates": 1}


#: (module, owner attribute or None for a module function, name,
#: span name, wrapper kind, count function).
TARGETS = (
    ("repro.isa.interpreter", "Machine", "run", "isa.interp", "call", _interp),
    ("repro.isa.interpreter", "Machine", "run_segments", "isa.interp",
     "iter", _length("instructions")),
    ("repro.perf.characterize", None, "kernel_trace", "perf.kernel_trace",
     "call", None),
    ("repro.uarch.synthetic", None, "generate_trace", "uarch.synthetic",
     "call", _length("events")),
    ("repro.uarch.synthetic", None, "generate_trace_segments",
     "uarch.synthetic", "iter", _length("events")),
    ("repro.isa.tracestore", None, "save_trace_v3", "isa.tracestore.encode",
     "call", _encode),
    ("repro.isa.tracestore", None, "load_trace_columnar",
     "isa.tracestore.decode", "call", _decode_whole),
    ("repro.isa.tracestore", None, "open_trace_segments",
     "isa.tracestore.decode", "call", _decode_open),
    ("repro.isa.tracestore", "SegmentedTraceReader", "segments",
     "isa.tracestore.decode", "iter", _length("events")),
    ("repro.uarch.core", "Core", "simulate", "uarch.core", "call", None),
    ("repro.uarch.core", "Core", "simulate_stream", "uarch.core", "call",
     None),
    # The one scalar hot loop: it also runs the singleton-group fallback
    # inside ``simulate_batched_stream``, which never calls the public
    # ``Core`` methods, so instructions are counted here.
    ("repro.uarch.core", "Core", "_simulate_columnar_segment", "uarch.core",
     "call", _segment_events),
    ("repro.perf.characterize", None, "characterize", "perf.characterize",
     "call", _characterize),
    ("repro.perf.characterize", None, "characterize_batched",
     "uarch.batched", "call", _characterize_batched),
    ("repro.uarch.batched", None, "simulate_batched", "uarch.batched",
     "call", None),
    ("repro.uarch.batched", None, "simulate_batched_stream",
     "uarch.batched", "call", None),
    ("repro.perf.stream", None, "pipelined", "perf.stream.wait", "iter",
     _segment),
    ("repro.engine.cache", "PersistentCache", "load_result_payload",
     "engine.cache.result_load", "call", _load),
    ("repro.engine.cache", "PersistentCache", "store_result_payload",
     "engine.cache.result_store", "call", None),
    ("repro.engine.journal", "RunJournal", "_append",
     "engine.journal.append", "call", None),
    ("repro.engine.scheduler", None, "fan_out", "engine.scheduler", "call",
     None),
    ("repro.engine.engine", "Engine", "characterize", "engine.engine",
     "call", None),
    ("repro.engine.engine", "Engine", "characterize_batch", "engine.engine",
     "call", None),
    ("repro.perf.profiler", "Profiler", "run", "perf.profiler", "call", None),
    ("repro.uarch.llc", None, "simulate_llc", "uarch.llc", "call", None),
    ("repro.uarch.llc", None, "sharing_study", "uarch.llc", "call", None),
    ("repro.bpred.replay", None, "replay", "bpred.replay", "call", _replay),
    ("repro.accel.lab", None, "estimate", "accel", "call", _estimate),
    ("repro.accel.lab", None, "estimate_many", "accel", "call", None),
    ("repro.experiments.common", None, "prefetch_points",
     "experiments.prefetch", "call", None),
)


def install(recorder: Recorder) -> None:
    """Wrap every target, raising if any entry point is missing."""
    # Import every layer first, so by-name imports exist to be rebound.
    for module_name in {target[0] for target in TARGETS}:
        importlib.import_module(module_name)
    importlib.import_module("repro.experiments.__main__")
    for module_name, owner_name, attribute, span, kind, count in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attribute)
        wrap = wrap_iter if kind == "iter" else wrap_call
        rebind("repro", owner, attribute,
               wrap(recorder, span, original, count))
    from repro.experiments import EXPERIMENTS

    if tuple(EXPERIMENTS) != EXPERIMENT_IDS:
        raise RuntimeError(
            f"experiment ids changed: {tuple(EXPERIMENTS)} != "
            f"{EXPERIMENT_IDS}"
        )
    for experiment in EXPERIMENT_IDS:
        EXPERIMENTS[experiment] = wrap_call(
            recorder, f"experiments.{experiment}", EXPERIMENTS[experiment]
        )


def trace_memo_mb() -> float:
    """Decoded traces held in the perf layer's in-memory memos."""
    perf = importlib.import_module("repro.perf.characterize")
    traces = {id(t): t for t in perf._kernel_trace_cache.values()}
    traces.update({id(t): t for t in perf._background_cache.values()})
    return sum(trace.nbytes for trace in traces.values()) / 1e6


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times from one traced process's spans.

    A decode is useful when an engine design point of its (app,
    variant) — or, for a background trace, of its app — was simulated
    in the same process: the trace fed the engine's own simulation, not
    only an experiment that bypasses the engine.
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    simulated: set[tuple[str, str]] = set()
    decoded: list[tuple[str, str]] = []
    for span in spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.id]
        total_s[span.name] = total_s.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            if key == "point":
                parent = by_id.get(span.parent)
                if parent is not None and parent.name == "engine.engine":
                    simulated.add(tuple(value))
            elif key == "trace":
                decoded.append(tuple(value))
            else:
                name = f"{span.name}.{key}"
                counts[name] = counts.get(name, 0) + value
    simulated_apps = {app for app, _ in simulated}
    useful = sum(
        1 for app, variant in decoded
        if (app, variant) in simulated
        or (variant == "~background" and app in simulated_apps)
    )

    def s(name):
        return self_s.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    metrics = {
        "isa.interp.minst": c("isa.interp.instructions") / 1e6,
        "isa.interp.self_s": s("isa.interp"),
        "perf.kernel_trace.self_s": s("perf.kernel_trace"),
        "uarch.synthetic.events": c("uarch.synthetic.events"),
        "uarch.synthetic.self_s": s("uarch.synthetic"),
        "isa.tracestore.encode_s": s("isa.tracestore.encode"),
        "isa.tracestore.encode_mb": c("isa.tracestore.encode.bytes") / 1e6,
        "isa.tracestore.decode_s": s("isa.tracestore.decode"),
        "isa.tracestore.decode_events": c("isa.tracestore.decode.events"),
        "isa.tracestore.decodes": len(decoded),
        "isa.tracestore.decodes_useful": useful,
        "uarch.core.minst": c("uarch.core.instructions") / 1e6,
        "uarch.core.self_s": s("uarch.core"),
        "perf.characterize.self_s": s("perf.characterize"),
        "uarch.batched.points": c("uarch.batched.points"),
        "uarch.batched.vectorized": c("uarch.batched.vectorized"),
        "uarch.batched.self_s": s("uarch.batched"),
        "perf.stream.segments": c("perf.stream.wait.segments"),
        "perf.stream.wait_s": s("perf.stream.wait"),
        "engine.cache.result_loads":
            calls.get("engine.cache.result_load", 0),
        "engine.cache.result_hits": c("engine.cache.result_load.hit"),
        "engine.cache.result_load_s": s("engine.cache.result_load"),
        "engine.cache.result_stores":
            calls.get("engine.cache.result_store", 0),
        "engine.cache.result_store_s": s("engine.cache.result_store"),
        "engine.journal.appends": calls.get("engine.journal.append", 0),
        "engine.journal.append_s": s("engine.journal.append"),
        "engine.scheduler.self_s": s("engine.scheduler"),
        "engine.engine.self_s": s("engine.engine"),
        "perf.profiler.self_s": s("perf.profiler"),
        "uarch.llc.self_s": s("uarch.llc"),
        "bpred.replay.branches": c("bpred.replay.branches"),
        "bpred.replay.self_s": s("bpred.replay"),
        "accel.estimates": c("accel.estimates"),
        "accel.self_s": s("accel"),
        "experiments.prefetch_s": total_s.get("experiments.prefetch", 0.0),
    }
    for experiment in EXPERIMENT_IDS:
        metrics[f"experiments.{experiment}.run_s"] = total_s.get(
            f"experiments.{experiment}", 0.0
        )
    metrics["trace.self_sum_s"] = sum(own.values())
    return metrics

