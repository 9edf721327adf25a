"""What the benchmark promises: names, units, transparency, loud failure.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, layers, run
from perfbench.layers import layer_metrics

ROOT = Path(__file__).resolve().parents[2]

#: Every metric the benchmark's specification names.
SPEC_END_TO_END = {"wall_s", "points_per_s", "peak_rss_mb", "setup_s",
                   "failed_frac", "paper_gain_gap_pp", "paper_ipc_err"}
SPEC_PER_LAYER = {
    "isa.interp.minst", "isa.interp.self_s", "isa.interp.minst_per_s",
    "perf.kernel_trace.self_s", "uarch.synthetic.events",
    "uarch.synthetic.self_s", "isa.tracestore.encode_s",
    "isa.tracestore.encode_mb", "isa.tracestore.decode_s",
    "isa.tracestore.decode_events", "isa.tracestore.decode_useful_frac",
    "uarch.core.minst", "uarch.core.self_s", "uarch.core.minst_per_s",
    "uarch.batched.points", "uarch.batched.self_s",
    "uarch.batched.vectorized_frac", "uarch.batched.native",
    "uarch.batched.frontend_s", "uarch.batched.replay_ms_per_config",
    "uarch.batched.replay_ms_per_config_py", "perf.stream.segments",
    "perf.stream.wait_s", "perf.trace_memo_mb", "engine.cache.result_loads",
    "engine.cache.result_load_s", "engine.cache.result_stores",
    "engine.cache.result_store_s", "engine.cache.result_hit_frac",
    "engine.journal.appends", "engine.journal.append_s",
    "engine.scheduler.self_s", "perf.profiler.self_s", "uarch.llc.self_s",
    "bpred.replay.branches", "bpred.replay.self_s", "accel.estimates",
    "accel.self_s", "experiments.prefetch_s", "python.import_s",
    "trace.overhead_s",
    *(f"experiments.{name}.run_s" for name in layers.EXPERIMENT_IDS),
}


def test_benchmark_json_names_match_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert all(unit for unit in run.PER_LAYER_UNITS.values())


def test_every_specified_metric_is_printed():
    # failed_frac is 0 on a clean run and a metric may not read 0, so it
    # travels as the result's failed/attempted counts instead.
    assert SPEC_END_TO_END - set(run.END_TO_END_UNITS) == {"failed_frac"}
    printed = set(run.PER_LAYER_UNITS) | set(run.RATIOS)
    assert SPEC_PER_LAYER <= printed
    for top, bottom in run.RATIOS.values():
        assert {top, bottom} <= set(run.PER_LAYER_UNITS)


def test_layer_metrics_fill_the_per_layer_list():
    measured_elsewhere = {
        "uarch.batched.native", "uarch.batched.frontend_s",
        "uarch.batched.replay_ms_per_config",
        "uarch.batched.replay_ms_per_config_py",
        "uarch.batched.probe_events", "perf.trace_memo_mb",
        "python.import_s", "trace.wall_s", "trace.overhead_s",
    }
    assert set(layer_metrics([])) | measured_elsewhere == \
        set(run.LAYER_UNITS)


def test_cold_layers_come_from_the_traced_cold_process():
    # cold.<name> is layer_metrics over the cold process's spans, plus
    # its traced wall time.
    assert set(run.COLD_LAYERS) <= set(layer_metrics([])) | {"trace.wall_s"}
    assert set(run.PER_LAYER_UNITS) == set(run.LAYER_UNITS) | {
        f"cold.{name}" for name in run.COLD_LAYERS}


def test_a_missing_entry_point_fails_the_install(monkeypatch):
    bogus = ("repro.uarch.core", "Core", "no_such_entry_point",
             "uarch.core", "call", None)
    monkeypatch.setattr(layers, "TARGETS", (bogus,))
    with pytest.raises(AttributeError):
        layers.install(layers.Recorder())


def test_the_probe_fails_without_its_traces(tmp_path):
    from perfbench.probe import run_probe

    with pytest.raises(RuntimeError, match="missing"):
        run_probe(tmp_path, seed=1)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "config-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


SWEEP = """
import sys
cache, spans = sys.argv[1], sys.argv[2]
recorder = None
if spans != "-":
    from perfbench.layers import install
    from perfbench.spans import Recorder
    recorder = Recorder()
    install(recorder)
from repro.engine.cache import use_cache_dir
from repro.engine.engine import Engine
from repro.uarch.config import power5
use_cache_dir(cache)
base = power5()
configs = (base, base.with_fxus(3), base.with_btac(),
           base.with_btac().with_fxus(3))
Engine(cache_dir=cache).characterize_many(
    [("blast", "baseline", config) for config in configs], jobs=1)
if recorder is not None:
    recorder.write(spans)
"""

PRIME = """
import sys
from repro.engine.cache import use_cache_dir
from repro.perf.characterize import background_trace, kernel_trace
use_cache_dir(sys.argv[1])
kernel_trace("blast", "baseline")
background_trace("blast")
"""


def _python(code: str, *args, tmp: Path) -> None:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(tmp)
    env["XDG_CACHE_HOME"] = str(tmp / "default-cache")
    subprocess.run([sys.executable, "-c", code, *map(str, args)],
                   cwd=ROOT, env=env, check=True, timeout=300)


def test_wrappers_are_transparent(tmp_path):
    from perfbench.spans import read_spans

    primed = tmp_path / "primed"
    _python(PRIME, primed, tmp=tmp_path)
    shutil.copytree(primed, tmp_path / "plain")
    shutil.copytree(primed, tmp_path / "traced")
    spans = tmp_path / "spans.json"
    _python(SWEEP, tmp_path / "plain", "-", tmp=tmp_path)
    _python(SWEEP, tmp_path / "traced", spans, tmp=tmp_path)

    assert not (tmp_path / "default-cache").exists()
    _, plain, _ = checks.read_journals(tmp_path / "plain")
    _, traced, _ = checks.read_journals(tmp_path / "traced")
    assert len(plain) == 4
    assert traced == plain
    metrics = layer_metrics(read_spans(str(spans)))
    assert metrics["uarch.batched.points"] == 4
    assert metrics["isa.interp.minst"] == 0
    assert metrics["engine.journal.appends"] > 0


def test_only_engine_simulations_make_a_decode_useful():
    from perfbench.spans import Span

    def span(id, name, parent=None, **counts):
        return Span(id=id, name=name, start=float(id), end=id + 0.5,
                    parent=parent, thread=1, counts=counts)

    spans = [
        span(1, "isa.tracestore.decode", trace=["blast", "baseline"]),
        span(2, "isa.tracestore.decode", trace=["blast", "~background"]),
        span(3, "isa.tracestore.decode", trace=["fasta", "baseline"]),
        span(4, "engine.engine"),
        span(5, "uarch.batched", parent=4, point=["blast", "baseline"]),
        # An experiment calling characterize directly is not an engine point.
        span(6, "experiments.ablations"),
        span(7, "perf.characterize", parent=6, point=["fasta", "baseline"]),
    ]
    metrics = layer_metrics(spans)
    assert metrics["isa.tracestore.decodes"] == 3
    assert metrics["isa.tracestore.decodes_useful"] == 2
