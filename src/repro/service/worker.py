"""The drain loop one sweep-service worker runs.

A worker attaches to an existing journaled run and loops: read the
journal, pick the first claimable point (pending, no live lease), bid
for it, and on a confirmed claim simulate the point with a heartbeat
thread renewing the lease in the background. Completions and failures
are journaled through the claim client's ownership checks, so several
workers draining one run against a shared cache directory produce the
same record stream a single worker would — and a worker killed
mid-point simply lets its lease expire, handing the point to whoever
bids next.

Fault injection (tests only): ``REPRO_WORKER_HOLD_KEY=app:variant``
parks the worker forever right after it claims the matching point —
*before* any heartbeat — and touches ``REPRO_WORKER_HOLD_FILE`` so the
test knows the claim landed. Killing the parked worker then exercises
the expiry-reclaim path end to end.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine import serialize
from repro.engine.cache import use_cache_dir
from repro.engine.digest import result_payload_digest
from repro.engine.journal import RunState, config_digest_of
from repro.errors import WorkloadError
from repro.service.claims import DEFAULT_LEASE_SECONDS, ClaimClient, ClaimStats

#: How long an idle worker waits before re-reading the journal when
#: every pending point is leased to someone else.
DEFAULT_POLL_SECONDS = 0.2


@dataclass
class WorkerReport:
    """What one worker did to a run (returned by :func:`drain_run`)."""

    worker_id: str
    run_id: str
    completed: list = field(default_factory=list)
    failed: list = field(default_factory=list)
    stats: ClaimStats = field(default_factory=ClaimStats)


def default_worker_id() -> str:
    return f"worker-{os.getpid()}"


def _configs_by_key(state: RunState) -> dict:
    """Unique point key -> journaled config payload (first occurrence)."""
    table: dict = {}
    for app, variant, payload in state.points:
        try:
            digest = config_digest_of(payload)
        except Exception:
            continue  # unclaimable either way; listed via fallback digest
        table.setdefault((app, variant, digest), payload)
    return table


def _heartbeat_loop(
    client: ClaimClient,
    key: tuple[str, str, str],
    stop: threading.Event,
    interval: float,
) -> None:
    while not stop.wait(interval):
        try:
            client.heartbeat(key)
        except Exception:
            return  # journal closed underneath us: the drain is over


def _maybe_hold(key: tuple[str, str, str]) -> None:
    """Test-only fault injection: park forever on the configured point."""
    target = os.environ.get("REPRO_WORKER_HOLD_KEY", "")
    if not target or target != f"{key[0]}:{key[1]}":
        return
    marker = os.environ.get("REPRO_WORKER_HOLD_FILE", "")
    if marker:
        Path(marker).touch()
    while True:  # no heartbeats: the lease must expire; SIGKILL ends us
        time.sleep(0.5)


def drain_run(
    cache_root: Path | str,
    run_id: str,
    *,
    worker_id: str | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    heartbeat_seconds: float | None = None,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    max_points: int | None = None,
) -> WorkerReport:
    """Drain claimable points from one run until none are pending.

    Re-points the process-wide cache at ``cache_root`` (exactly like
    the scheduler's pool workers: the perf-layer trace store persists
    through the process-wide cache) and runs each claimed point through
    a fresh engine's memo -> disk -> simulate path, so two workers
    sharing a cache directory share traces and results.

    ``max_points`` bounds how many points this worker takes (tests use
    it to force a deterministic split across workers). Returns a
    :class:`WorkerReport`; the same counters are journaled as a
    ``worker_stats`` record.
    """
    from repro.engine.engine import Engine

    worker_id = worker_id or default_worker_id()
    if lease_seconds <= 0:
        raise WorkloadError(
            f"lease must be positive, got {lease_seconds}"
        )
    if heartbeat_seconds is None:
        heartbeat_seconds = max(lease_seconds / 3.0, 0.05)

    use_cache_dir(cache_root)
    engine = Engine()
    client = ClaimClient(cache_root, run_id, worker_id, lease_seconds)
    report = WorkerReport(
        worker_id=worker_id, run_id=run_id, stats=client.stats
    )
    try:
        configs: dict | None = None
        while True:
            taken = len(report.completed) + len(report.failed)
            if max_points is not None and taken >= max_points:
                break
            state = client.state()
            if state.corrupt is not None:
                raise WorkloadError(
                    f"cannot drain run {run_id!r}: {state.corrupt}"
                )
            if configs is None:
                configs = _configs_by_key(state)
            if not state.pending_keys():
                break
            claimed = None
            for key in state.claimable_keys():
                if key not in configs:
                    continue  # damaged config payload: leave it pending
                if client.try_claim(key, state):
                    claimed = key
                    break
            if claimed is None:
                # Everything pending is leased out (or unclaimable);
                # wait for completions or expiries.
                time.sleep(poll_seconds)
                continue
            _maybe_hold(claimed)
            app, variant, _ = claimed
            config = serialize.config_from_dict(configs[claimed])
            stop = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(client, claimed, stop, heartbeat_seconds),
                name=f"repro-heartbeat-{worker_id}",
                daemon=True,
            )
            beat.start()
            try:
                result = engine.characterize(app, variant, config)
            except Exception as error:
                stop.set()
                beat.join()
                client.record_failed(
                    claimed, "error", type(error).__name__, str(error)
                )
                client.release(claimed)
                report.failed.append(claimed)
                continue
            stop.set()
            beat.join()
            payload = serialize.characterisation_to_dict(result)
            if client.record_done(claimed, result_payload_digest(payload)):
                report.completed.append(claimed)
    finally:
        client.finish()
    return report
