"""Output checks: every engine result is read back and judged.

After each measured process the parent reads the run journals the
engine wrote, loads every journaled result from the cache, and checks:

* the engine reported no failed point and every point it was asked for
  completed;
* each stored payload still hashes to the ``result_digest`` the
  journal recorded when the point completed;
* the ``repro.validate`` gate passes over every core result.

It also computes the result-set digest over the journaled
``result_digest`` values, which :mod:`perfbench.run` compares across
processes of the same code.

Points failing any check are counted in ``failed``; ``attempted`` is
the number of unique points the engine was asked for.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class ResultSet:
    """What one measured process delivered, and what failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    #: (app, variant, config_digest) -> result digest, as journaled.
    done: dict = field(default_factory=dict)
    #: (app, variant, config_digest) -> AppCharacterisation (core only).
    results: dict = field(default_factory=dict)

    def fail(self, points: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + points)
        self.problems.append(problem)


def read_journals(cache_dir: Path) -> tuple[set, dict, set]:
    """(requested keys, done key -> result digest, failed keys)."""
    requested: set = set()
    done: dict = {}
    failed: set = set()
    for path in sorted((Path(cache_dir) / "runs").glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            kind = record.get("record")
            if kind == "run_start":
                requested.update(
                    (p["app"], p["variant"], p["config_digest"])
                    for p in record["points"]
                )
            elif kind in ("point_done", "point_failed"):
                key = (record["app"], record["variant"],
                       record["config_digest"])
                if kind == "point_done":
                    done[key] = record["result_digest"]
                else:
                    failed.add(key)
    return requested, done, failed


def result_set_digest(done: dict) -> str:
    digest = hashlib.sha256()
    for key in sorted(done):
        digest.update((" ".join(key) + " " + done[key] + "\n").encode())
    return digest.hexdigest()


def check_results(cache_dir: Path, exit_code: int) -> ResultSet:
    """Read back and judge every result one measured process delivered."""
    from repro.accel.lab import accel_slot
    from repro.engine import serialize
    from repro.engine.cache import PersistentCache
    from repro.engine.digest import result_payload_digest
    from repro.perf.characterize import AppCharacterisation
    from repro.validate import validate_points

    requested, done, failed = read_journals(cache_dir)
    out = ResultSet(attempted=max(1, len(requested)), done=done)
    if exit_code != 0:
        out.fail(out.attempted, f"measured process exited with {exit_code}")
    if not requested:
        out.fail(out.attempted, "no journaled design points")
    engine_failed = (failed - set(done)) | (requested - set(done))
    if engine_failed:
        out.fail(len(engine_failed),
                 f"{len(engine_failed)} points failed in the engine")
    cache = PersistentCache(cache_dir)
    bad = 0
    for key, recorded in sorted(done.items()):
        app, variant, digest = key
        payload = cache.load_result_payload(app, variant, digest)
        if payload is None:
            payload = cache.load_result_payload(
                app, accel_slot(variant), digest)
        if payload is None or result_payload_digest(payload) != recorded:
            bad += 1
            continue
        result = serialize.characterisation_from_dict(payload)
        if isinstance(result, AppCharacterisation):
            out.results[key] = result
    if bad:
        out.fail(bad, f"{bad} stored results differ from their journal")
    report = validate_points(out.results)
    if not report.ok:
        out.fail(len(report.failures), report.render())
    out.digest = result_set_digest(done)
    return out


def paper_metrics(results: dict) -> tuple[float, float]:
    """(|Figure 6 average - paper| in pp, mean Table I IPC error).

    The same arithmetic as ``repro.experiments.fig6`` and ``table1``,
    over already-simulated results; the experiment workloads cross-check
    it against the experiments' own numbers on every run.
    """
    from repro.engine.digest import config_digest
    from repro.experiments.common import APPS
    from repro.experiments.fig6 import PAPER_AVERAGE
    from repro.experiments.table1 import PAPER_VALUES
    from repro.uarch.config import power5

    base = config_digest(power5())
    combined = config_digest(power5().with_btac().with_fxus(4))
    gains = [
        results[(app, "combination", combined)].speedup_over(
            results[(app, "baseline", base)])
        for app in APPS
    ]
    errors = [
        abs(results[(app, "baseline", base)].ipc - PAPER_VALUES[app]["ipc"])
        / PAPER_VALUES[app]["ipc"]
        for app in APPS
    ]
    return (abs(sum(gains) / len(gains) - PAPER_AVERAGE) * 100,
            sum(errors) / len(errors))


def experiment_paper_metrics(out: dict) -> tuple[float, float]:
    """The same two figures from the experiments' own ``data``."""
    from repro.experiments.fig6 import PAPER_AVERAGE
    from repro.experiments.table1 import PAPER_VALUES

    errors = [
        abs(ipc - PAPER_VALUES[app]["ipc"]) / PAPER_VALUES[app]["ipc"]
        for app, ipc in out["table1_ipc"].items()
    ]
    return (abs(out["fig6_average"] - PAPER_AVERAGE) * 100,
            sum(errors) / len(errors))


def scalar_agrees(cache_dir: Path, points: list, done: dict) -> list[str]:
    """Re-simulate ``points`` through the scalar, unstreamed path.

    Returns one problem per point whose canonical payload digest differs
    from the batched result the engine journaled.
    """
    from repro.engine import serialize
    from repro.engine.cache import use_cache_dir
    from repro.engine.digest import config_digest, result_payload_digest
    from repro.perf.characterize import characterize, clear_trace_caches

    use_cache_dir(cache_dir)
    clear_trace_caches()
    problems = []
    for app, variant, config in points:
        scalar = characterize(app, variant, config, stream=False)
        digest = result_payload_digest(
            serialize.characterisation_to_dict(scalar))
        key = (app, variant, config_digest(config))
        if done.get(key) != digest:
            problems.append(
                f"scalar re-simulation of {key[:2]} fxu={config.fxu_count} "
                f"penalty={config.taken_branch_penalty} differs from the "
                "batched result"
            )
    return problems
