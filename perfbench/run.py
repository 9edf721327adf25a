"""Benchmark the design-point sweep end to end, or per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload warm-all --seed 1 --seconds 30 \
        --trace 0

Workloads (see :mod:`perfbench.workloads` for why each was chosen):
``warm-all`` and ``config-sweep``. A run measures fresh processes one
after another, each on a start state set up just before it (timed:
``setup_s`` is the median), at least three and then as many more as
fit in ``--seconds``. Every process's results are read back and checked
(:mod:`perfbench.checks`).

``--trace 0`` prints the end-to-end metrics: medians over the measured
processes. ``--trace 1`` runs, with the layer wrappers installed
(:mod:`perfbench.layers`), one cold ``all`` process on an empty cache
(its layers print as ``cold.*``) and one process of the workload, and
prints the per-layer metrics, the batched split probe
(:mod:`perfbench.probe`) and the tracing overhead: traced wall time
minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. All state lives
under ``.perfbench-work/`` in the working directory. The cache a clean
cold ``all`` process leaves is kept there, once per source tree:
``warm-all`` starts from a copy of it, and ``config-sweep`` from a trace
store primed with the sweep's traces copied out of it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    COLD_ALL, CONFIG_SWEEP, WORKLOADS, sample_points,
)

WORK = ROOT / ".perfbench-work"
#: Fewest measured processes (and so set-ups) per run: every
#: end-to-end time is a median of at least three.
MIN_PROCESSES = 3
#: Untraced processes whose median the tracing overhead is taken against.
RECENT_UNTRACED = 5
#: A run must end within 180 s; stop starting work well before that.
DEADLINE_S = 170.0

#: Units of every metric this benchmark prints.
END_TO_END_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "paper_gain_gap_pp": "pp",
    "paper_ipc_err": "ratio",
}
LAYER_UNITS = {
    "isa.interp.minst": "Minst",
    "isa.interp.self_s": "s",
    "perf.kernel_trace.self_s": "s",
    "uarch.synthetic.events": "count",
    "uarch.synthetic.self_s": "s",
    "isa.tracestore.encode_s": "s",
    "isa.tracestore.encode_mb": "MB",
    "isa.tracestore.decode_s": "s",
    "isa.tracestore.decode_events": "count",
    "isa.tracestore.decodes": "count",
    "isa.tracestore.decodes_useful": "count",
    "uarch.core.minst": "Minst",
    "uarch.core.self_s": "s",
    "perf.characterize.self_s": "s",
    "uarch.batched.points": "count",
    "uarch.batched.vectorized": "count",
    "uarch.batched.self_s": "s",
    "uarch.batched.native": "flag",
    "uarch.batched.frontend_s": "s",
    "uarch.batched.replay_ms_per_config": "ms",
    "uarch.batched.replay_ms_per_config_py": "ms",
    "uarch.batched.probe_events": "count",
    "perf.stream.segments": "count",
    "perf.stream.wait_s": "s",
    "perf.trace_memo_mb": "MB",
    "engine.cache.result_loads": "count",
    "engine.cache.result_hits": "count",
    "engine.cache.result_load_s": "s",
    "engine.cache.result_stores": "count",
    "engine.cache.result_store_s": "s",
    "engine.journal.appends": "count",
    "engine.journal.append_s": "s",
    "engine.scheduler.self_s": "s",
    "engine.engine.self_s": "s",
    "perf.profiler.self_s": "s",
    "uarch.llc.self_s": "s",
    "bpred.replay.branches": "count",
    "bpred.replay.self_s": "s",
    "accel.estimates": "count",
    "accel.self_s": "s",
    "experiments.prefetch_s": "s",
    **{f"experiments.{name}.run_s": "s" for name in (
        "table1", "fig1", "fig2", "fig3", "table2", "fig4", "fig5", "fig6",
        "ext_phylip", "ext_cmp_llc", "ext_bpred", "ext_accel", "ablations")},
    "python.import_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}
#: Layers of the traced cold ``all`` process, printed as ``cold.<name>``:
#: the ones that do work only when the cache is empty, the two largest
#: (interpreter and scalar core), and the writes a cold run pays.
COLD_LAYERS = (
    "isa.interp.minst", "isa.interp.self_s", "perf.kernel_trace.self_s",
    "uarch.synthetic.events", "uarch.synthetic.self_s",
    "isa.tracestore.encode_s", "isa.tracestore.encode_mb",
    "uarch.core.minst", "uarch.core.self_s", "uarch.batched.points",
    "uarch.batched.vectorized", "uarch.batched.self_s",
    "perf.stream.segments", "perf.stream.wait_s",
    "engine.cache.result_stores", "engine.cache.result_store_s",
    "engine.journal.appends", "engine.journal.append_s",
    "bpred.replay.branches", "bpred.replay.self_s", "accel.estimates",
    "accel.self_s", "experiments.prefetch_s", "trace.wall_s",
    "trace.self_sum_s",
)
PER_LAYER_UNITS = {
    **LAYER_UNITS,
    **{f"cold.{name}": LAYER_UNITS[name] for name in COLD_LAYERS},
}

#: Ratios printed with the traced run but kept out of its JSON: each is
#: undefined (0/0) on a workload where its layer does no work, and a
#: metric that cannot be measured must not read as 0. The JSON carries
#: their numerator and denominator instead.
RATIOS = {
    "isa.interp.minst_per_s": ("isa.interp.minst", "isa.interp.self_s"),
    "uarch.core.minst_per_s": ("uarch.core.minst", "uarch.core.self_s"),
    "uarch.batched.vectorized_frac": (
        "uarch.batched.vectorized", "uarch.batched.points"),
    "isa.tracestore.decode_useful_frac": (
        "isa.tracestore.decodes_useful", "isa.tracestore.decodes"),
    "engine.cache.result_hit_frac": (
        "engine.cache.result_hits", "engine.cache.result_loads"),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Iteration:
    """One measured process and the checks of what it delivered."""

    state: Path
    wall_s: float
    rss_mb: float
    cpu_s: float
    payload: dict
    results: checks.ResultSet


@dataclass
class Run:
    workload: str
    seed: int
    started: float
    directory: Path
    setups: list[float] = field(default_factory=list)
    native: bool = False

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)


@functools.cache
def source_digest() -> str:
    """Digest of the program's sources: keys what is kept across runs."""
    digest = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env(state: Path) -> dict:
    """The measured environment: no REPRO_* overrides, private tmp.

    ``XDG_CACHE_HOME`` points into the state so that a process which
    fell back to the program's default cache directory would still stay
    inside the checkout; :func:`measure` fails the run if one did.
    A fixed hash seed gives every process the same dict and set layout,
    so two processes of the same code do the same work.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(state / "tmp")
    env["XDG_CACHE_HOME"] = str(state / "default-cache")
    return env


def spawn(run: Run, state: Path, *args: str):
    """Run one ``perfbench.child`` process: (wall s, rusage, exit code)."""
    timeout = run.remaining()
    if timeout <= 0:
        raise BenchError("out of time before starting a measured process")
    with open(state / "child.log", "ab") as log:
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", *args],
            cwd=ROOT, env=child_env(state), stdout=log, stderr=log,
        )
        killer = threading.Timer(timeout, process.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode < 0:
        raise BenchError(
            f"child {args[0]} killed by signal {-process.returncode} "
            f"(timeout {timeout:.0f} s); log in {state / 'child.log'}"
        )
    return wall, usage, process.returncode


def template_dir() -> Path:
    return WORK / "templates" / source_digest()


def setup(run: Run) -> Path:
    """Build one start state; its time joins ``run.setups``."""
    state = run.directory / f"state-{len(list(run.directory.iterdir()))}"
    (state / "tmp").mkdir(parents=True)
    args = ["setup", run.workload, str(state)]
    if run.workload != COLD_ALL:
        args.append(str(template_dir() / "cache"))
    wall, _, code = spawn(run, state, *args)
    if code != 0:
        raise BenchError(f"set-up failed; log in {state / 'child.log'}")
    run.setups.append(wall)
    run.native = json.loads((state / "setup.json").read_text())["native"]
    return state


def measure(run: Run, state: Path, spans: Path | None = None) -> Iteration:
    out = state / "out.json"
    if run.workload == CONFIG_SWEEP:
        args = ["sweep", str(state), str(run.seed), str(out)]
    else:
        args = ["experiments", str(state), str(out)]
    if spans is not None:
        args.append(str(spans))
    wall, usage, code = spawn(run, state, *args)
    payload = json.loads(out.read_text()) if out.exists() else {}
    if code == 0 and not payload:
        code = -1
    results = checks.check_results(state / "cache", code)
    if (state / "default-cache").exists():
        results.fail(results.attempted,
                     "the measured process used the default cache directory")
    return Iteration(state, wall, usage.ru_maxrss / 1024,
                     usage.ru_utime + usage.ru_stime, payload, results)


def ensure_template(run: Run) -> None:
    """Build the cache ``warm-all`` and ``config-sweep`` start from, once."""
    if (template_dir() / "cache").is_dir():
        return
    started = time.perf_counter()
    cold = Run(COLD_ALL, run.seed, run.started, run.directory)
    state = setup(cold)
    iteration = measure(cold, state)
    if iteration.results.failed:
        raise BenchError("the cold run that builds the warm cache failed: "
                         + "; ".join(iteration.results.problems))
    keep_template(state, iteration)
    print(f"built the kept cold-run cache once in "
          f"{time.perf_counter() - started:.1f} s (not part of setup_s)")


def keep_template(state: Path, iteration: Iteration) -> None:
    """Keep a cold run's cache (minus its journals) for later start states."""
    target = template_dir()
    if target.exists() or iteration.results.failed:
        return
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=target.parent))
    shutil.copytree(state / "cache", staging / "cache",
                    ignore=shutil.ignore_patterns("runs"))
    try:
        staging.rename(target)
    except OSError:
        shutil.rmtree(staging, ignore_errors=True)


def digests(iteration: Iteration) -> dict:
    return {"result_set": iteration.results.digest,
            "tables": iteration.payload.get("tables_digest")}


def check_iterations(run: Run, iterations: list[Iteration]) -> None:
    """Same code, same inputs: every digest must agree.

    The first clean process of a source tree records the reference
    digests; every later one, in this run or a later run, must match
    them. ``cold-all`` and ``warm-all`` share one reference.
    """
    key = (f"sweep-{run.seed}" if run.workload == CONFIG_SWEEP
           else "experiments")
    path = WORK / "digests" / source_digest() / f"{key}.json"
    reference = json.loads(path.read_text()) if path.exists() else None
    for iteration in iterations:
        current = digests(iteration)
        if reference is None:
            if iteration.results.failed:
                continue
            reference = current
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(reference))
        elif current != reference:
            iteration.results.fail(
                iteration.results.attempted,
                f"digests {current} differ from {reference}")


def paper_metrics(run: Run, iteration: Iteration) -> tuple[float, float]:
    results = iteration.results
    try:
        again = checks.paper_metrics(results.results)
        if run.workload == CONFIG_SWEEP:
            return again
        gap, err = checks.experiment_paper_metrics(iteration.payload)
    except (KeyError, TypeError) as missing:
        raise BenchError(
            f"the paper metrics cannot be measured: {missing!r} is missing "
            f"from the process's results") from None
    if max(abs(gap - again[0]), abs(err - again[1])) > 1e-9:
        results.fail(results.attempted,
                     f"paper metrics from the experiments {gap, err} differ "
                     f"from the stored results {again}")
    return gap, err


def history_path(run: Run) -> Path:
    return WORK / "history" / f"{run.workload}-{source_digest()}.json"


def run_untraced(run: Run, seconds: int) -> tuple[dict, int, int]:
    """Measure processes until ``seconds`` are spent, at least three.

    Each process gets a start state set up just before it. Another one
    starts only while the median time of one so far still fits in
    ``seconds`` and well inside the run's deadline.
    """
    ensure_template(run)
    iterations: list[Iteration] = []
    spent: list[float] = []
    started = time.perf_counter()
    while len(iterations) < MIN_PROCESSES or (
            time.perf_counter() - started + statistics.median(spent)
            <= seconds and run.remaining() > 2 * max(spent)):
        began = time.perf_counter()
        iterations.append(measure(run, setup(run)))
        spent.append(time.perf_counter() - began)
    if run.workload == CONFIG_SWEEP:
        problems = checks.scalar_agrees(
            iterations[0].state / "cache",
            sample_points(run.seed), iterations[0].results.done)
        for problem in problems:
            iterations[0].results.fail(1, problem)
    check_iterations(run, iterations)
    gap, err = paper_metrics(run, iterations[0])
    for number, iteration in enumerate(iterations, 1):
        result = iteration.results
        print(f"process {number}: wall {iteration.wall_s:.3f} s "
              f"(CPU {iteration.cpu_s:.3f} s), {len(result.done)} points, "
              f"peak RSS {iteration.rss_mb:.1f} MB, "
              f"{result.failed}/{result.attempted} failed")
        print(f"  result-set digest {result.digest}")
        if iteration.payload.get("tables_digest"):
            print(f"  tables digest     {iteration.payload['tables_digest']}")
        for problem in result.problems:
            print(f"  FAILED CHECK: {problem}")
    history = history_path(run)
    history.parent.mkdir(parents=True, exist_ok=True)
    walls = json.loads(history.read_text()) if history.exists() else []
    history.write_text(json.dumps(walls + [i.wall_s for i in iterations]))
    metrics = {
        "wall_s": statistics.median(i.wall_s for i in iterations),
        "points_per_s": statistics.median(
            len(i.results.done) / i.wall_s for i in iterations),
        "peak_rss_mb": statistics.median(i.rss_mb for i in iterations),
        "setup_s": statistics.median(run.setups),
        "paper_gain_gap_pp": gap,
        "paper_ipc_err": err,
    }
    attempted = sum(i.results.attempted for i in iterations)
    failed = sum(i.results.failed for i in iterations)
    return metrics, attempted, failed


def traced_process(run: Run) -> tuple[Iteration, list]:
    """Set up and run one process of ``run`` with the wrappers installed."""
    from perfbench.spans import read_spans

    state = setup(run)
    spans_path = state / "spans.json"
    iteration = measure(run, state, spans_path)
    if not iteration.payload:
        raise BenchError(f"the traced {run.workload} process failed; log in "
                         f"{state / 'child.log'}")
    if not spans_path.exists():
        raise BenchError(f"the traced {run.workload} process wrote no spans")
    spans = read_spans(str(spans_path))
    if not spans:
        raise BenchError(
            f"the traced {run.workload} process recorded no spans")
    return iteration, spans


def check_self_sum(iteration: Iteration, self_sum: float) -> None:
    if self_sum > iteration.wall_s:
        iteration.results.fail(
            iteration.results.attempted,
            f"layer self times sum to {self_sum:.3f} s, more than the "
            f"traced wall time {iteration.wall_s:.3f} s")


def print_largest(label: str, metrics: dict) -> None:
    ranked = sorted(
        ((value, name) for name, value in metrics.items()
         if name.endswith(("self_s", "encode_s", "decode_s", "wait_s",
                           "load_s", "store_s", "append_s"))),
        reverse=True)
    print(f"  largest layers{label}: " + ", ".join(
          f"{name} {value:.2f} s" for value, name in ranked[:4]))


def run_traced(run: Run) -> tuple[dict, int, int]:
    """One traced cold ``all`` process, then one of the workload."""
    from perfbench.layers import layer_metrics
    from perfbench.probe import run_probe

    history = history_path(run)
    # The most recent untraced processes of this source tree: the host's
    # speed drifts over minutes, so older ones say less about this run.
    untraced = (json.loads(history.read_text())[-RECENT_UNTRACED:]
                if history.exists() else [])
    cold_run = Run(COLD_ALL, run.seed, run.started, run.directory)
    cold, cold_spans = traced_process(cold_run)
    check_iterations(cold_run, [cold])
    cold_layers = layer_metrics(cold_spans)
    check_self_sum(cold, cold_layers["trace.self_sum_s"])
    # The wrappers are transparent (the digests were just checked), so a
    # clean traced cold cache serves as the kept one if there is none.
    keep_template(cold.state, cold)
    ensure_template(run)
    traced, spans = traced_process(run)
    probe = run_probe(traced.state / "cache", run.seed)
    baseline = None
    if not untraced:
        # No untraced run of this source tree yet: measure one now, if
        # it can end inside the run's deadline.
        if run.remaining() < 1.2 * traced.wall_s + 10:
            raise BenchError(
                "no untraced process to take the tracing overhead against, "
                "and no time left to measure one; run with --trace 0 first")
        baseline = measure(run, setup(run))
        untraced = [baseline.wall_s]
        print(f"untraced process: wall {baseline.wall_s:.3f} s")
    iterations = [traced] + ([baseline] if baseline else [])
    check_iterations(run, iterations)
    metrics = layer_metrics(spans)
    metrics.update(probe)
    metrics["uarch.batched.native"] = int(run.native)
    metrics["python.import_s"] = traced.payload["import_s"]
    metrics["perf.trace_memo_mb"] = traced.payload["trace_memo_mb"]
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - statistics.median(untraced)
    check_self_sum(traced, metrics["trace.self_sum_s"])
    print(f"traced cold process: wall {cold.wall_s:.3f} s, "
          f"{len(cold_spans)} spans")
    print(f"  result-set digest {cold.results.digest}")
    print_largest(" (cold)", cold_layers)
    print(f"traced process: wall {traced.wall_s:.3f} s, "
          f"{len(spans)} spans, overhead {metrics['trace.overhead_s']:+.3f}"
          f" s against the untraced median of {len(untraced)}")
    print(f"  result-set digest {traced.results.digest}")
    for iteration in (cold, *iterations):
        for problem in iteration.results.problems:
            print(f"  FAILED CHECK: {problem}")
    for name, (top, bottom) in RATIOS.items():
        value = (f"{metrics[top] / metrics[bottom]:.6g}" if metrics[bottom]
                 else "n/a (the layer did no work)")
        print(f"  derived {name:40s} {value}")
    print_largest("", metrics)
    cold_layers["trace.wall_s"] = cold.wall_s
    metrics.update({f"cold.{name}": cold_layers[name]
                    for name in COLD_LAYERS})
    missing = set(PER_LAYER_UNITS) - set(metrics)
    if missing:
        raise BenchError(f"per-layer metrics not measured: {sorted(missing)}")
    everything = [cold, *iterations]
    attempted = sum(i.results.attempted for i in everything)
    failed = sum(i.results.failed for i in everything)
    return {name: metrics[name] for name in PER_LAYER_UNITS}, attempted, failed


def resolved_flags(native: bool) -> str:
    from repro.engine.scheduler import resolve_batch
    from repro.perf.stream import resolve_stream

    return (f"stream={'on' if resolve_stream() else 'off'} "
            f"batch={'on' if resolve_batch() else 'off'} "
            f"native={'on' if native else 'off'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "the repository root", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    # The parent's own native builds (probe, scalar re-check) stay here.
    (directory / "tmp").mkdir()
    os.environ["TMPDIR"] = str(directory / "tmp")
    os.environ["XDG_CACHE_HOME"] = str(directory / "default-cache")
    tempfile.tempdir = None
    run = Run(args.workload, args.seed, time.perf_counter(),
              directory / "states")
    run.directory.mkdir()
    try:
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        if args.trace:
            metrics, attempted, failed = run_traced(run)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted, failed = run_untraced(run, args.seconds)
            units = END_TO_END_UNITS
        print(f"flags: {resolved_flags(run.native)}")
        print(f"setup: {len(run.setups)} set-ups, "
              + ", ".join(f"{s:.3f} s" for s in run.setups))
        print(f"checks: {failed}/{attempted} points failed "
              f"(failed_frac {failed / attempted:.6g})")
        for name, value in metrics.items():
            print(f"  {name:42s} {value:14.6f} {units[name]}")
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps({
          "correct": failed == 0,
          "attempted": attempted,
          "failed": failed,
          "metrics": {name: {"value": value, "unit": units[name]}
          for name, value in metrics.items()},
          }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
