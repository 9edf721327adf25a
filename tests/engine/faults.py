"""Deterministic fault injection for the scheduler's recovery paths.

The harness wraps the real pool worker with a fault layer driven by a
JSON plan on disk (pointed at by the ``REPRO_FAULT_PLAN`` environment
variable, which forked/spawned workers inherit). The worker receives
one dispatch unit (the pending points of one ``app:variant``, or one
point of it), and a plan maps ``"app:variant"`` to ``[mode, times]``:

* ``mode`` — ``"raise"`` (worker raises :class:`InjectedFault`),
  ``"exit"`` (worker hard-exits via ``os._exit``, breaking the pool),
  or ``"hang"`` (worker sleeps until killed);
* ``times`` — how many attempts fault before the unit runs clean;
  ``-1`` faults on every attempt.

Attempt accounting is cross-process and deterministic: each faulting
attempt claims a token file with ``O_CREAT | O_EXCL`` next to the plan,
so retried units see exactly the configured number of faults no
matter which worker process runs them.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.engine.scheduler import _characterize_worker

ENV_PLAN = "REPRO_FAULT_PLAN"
ENV_COUNT = "REPRO_WORKER_COUNT_DIR"

MODE_RAISE = "raise"
MODE_EXIT = "exit"
MODE_HANG = "hang"

#: Always fault (never run clean).
ALWAYS = -1

#: How long a "hung" worker sleeps; far beyond any test timeout.
_HANG_SECONDS = 600.0

#: Exit status for hard-crashed workers (distinctive in pool stderr).
_EXIT_STATUS = 17


class InjectedFault(RuntimeError):
    """The exception raised by ``raise``-mode faults."""


def install_plan(plan_dir: Path, monkeypatch, faults: dict) -> Path:
    """Write ``faults`` (``{"app:variant": (mode, times)}``) as the plan.

    ``plan_dir`` must be a fresh directory (token files accumulate in
    it); ``monkeypatch`` exports it so pool workers see the plan.
    """
    plan_dir.mkdir(parents=True, exist_ok=True)
    payload = {key: list(spec) for key, spec in faults.items()}
    (plan_dir / "plan.json").write_text(
        json.dumps(payload), encoding="utf-8"
    )
    monkeypatch.setenv(ENV_PLAN, str(plan_dir))
    return plan_dir


def faulty_worker(task):
    """Drop-in for the scheduler's worker that injects planned faults."""
    app, variant, _configs, _cache_root = task
    plan_dir = Path(os.environ[ENV_PLAN])
    plan = json.loads((plan_dir / "plan.json").read_text(encoding="utf-8"))
    spec = plan.get(f"{app}:{variant}")
    if spec is not None:
        mode, times = spec
        if _claim_attempt(plan_dir, f"{app}:{variant}", times):
            if mode == MODE_RAISE:
                raise InjectedFault(f"injected fault for {app}:{variant}")
            if mode == MODE_EXIT:
                os._exit(_EXIT_STATUS)
            if mode == MODE_HANG:
                time.sleep(_HANG_SECONDS)
    return _characterize_worker(task)


def counting_worker(task):
    """Real pool worker that also logs each invocation to a shared dir.

    Every call claims a fresh ``app_variant.N`` token under the
    directory named by ``REPRO_WORKER_COUNT_DIR`` (``O_CREAT | O_EXCL``,
    so counts are exact across worker processes). Resume tests use it to
    prove journaled-done points are never re-submitted.
    """
    app, variant, _configs, _cache_root = task
    count_dir = Path(os.environ[ENV_COUNT])
    stem = f"{app}_{variant}"
    index = 0
    while True:
        token = count_dir / f"{stem}.{index}"
        try:
            descriptor = os.open(
                token, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            index += 1
            continue
        os.close(descriptor)
        break
    return _characterize_worker(task)


def install_counter(count_dir: Path, monkeypatch) -> Path:
    """Create the invocation-count directory and export it to workers."""
    count_dir.mkdir(parents=True, exist_ok=True)
    monkeypatch.setenv(ENV_COUNT, str(count_dir))
    return count_dir


def invocation_counts(count_dir: Path) -> dict[str, int]:
    """``{"app_variant": times_submitted}`` from the token files."""
    counts: dict[str, int] = {}
    for token in Path(count_dir).iterdir():
        stem = token.name.rsplit(".", 1)[0]
        counts[stem] = counts.get(stem, 0) + 1
    return counts


def _claim_attempt(plan_dir: Path, key: str, times: int) -> bool:
    """Whether this attempt should fault (claims one token if bounded)."""
    if times == ALWAYS:
        return True
    stem = key.replace(":", "_")
    for index in range(times):
        token = plan_dir / f"{stem}.{index}"
        try:
            descriptor = os.open(
                token, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            continue
        os.close(descriptor)
        return True
    return False
