"""Claim-only runs: create one, collect its results.

:func:`create_run` writes the journal header (the durable admission
record — a run exists the moment its points are journaled, whoever
ends up draining it); any number of :func:`~repro.service.worker.drain_run`
workers sharing the cache directory then drain it, and
:func:`collect_results` re-reads the journal plus the content-addressed
cache into the same ordered result list a serial
:meth:`Engine.characterize_many` call would return — re-verifying every
payload digest against the journal on the way, so a multi-worker run is
*provably* byte-identical to a single-worker one.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine import serialize
from repro.engine.cache import PersistentCache
from repro.engine.digest import result_payload_digest
from repro.engine.journal import RunJournal, config_digest_of, load_run
from repro.errors import WorkloadError


def create_run(
    cache_root: Path | str,
    points,
    workers: int = 2,
    run_id: str | None = None,
) -> str:
    """Journal a run header for ``points``; returns the run id.

    ``points`` is the ordered ``(app, variant, CoreConfig)`` request
    list (duplicates included). Nothing executes — the journal *is* the
    work queue, and any worker can attach to it afterwards.
    """
    journal = RunJournal.create(cache_root, points, jobs=workers,
                                run_id=run_id)
    journal.close()
    return journal.run_id


def collect_results(cache_root: Path | str, run_id: str):
    """The run's ordered results, digest-verified against the journal.

    Returns ``list[AppCharacterisation]`` in the journaled request
    order (duplicates included), loading each payload from the
    content-addressed cache and re-verifying it against the journaled
    ``point_done`` digest — the same check :meth:`Engine.resume`
    applies, so the returned list is byte-identical (as canonical
    JSON) to what a serial sweep over the same points yields.
    """
    state = load_run(cache_root, run_id)
    if state.corrupt is not None:
        raise WorkloadError(
            f"cannot collect run {run_id!r}: {state.corrupt}"
        )
    cache = PersistentCache(cache_root)
    results = []
    for app, variant, payload in state.points:
        digest = config_digest_of(payload)
        key = (app, variant, digest)
        expected = state.done.get(key)
        if expected is None:
            reason = state.failed.get(key, "never completed")
            raise WorkloadError(
                f"run {run_id!r} point {app}/{variant}/"
                f"{digest[:12]} has no result ({reason})"
            )
        stored = cache.load_result_payload(app, variant, digest)
        if stored is None:
            raise WorkloadError(
                f"run {run_id!r} point {app}/{variant}/{digest[:12]} "
                f"journaled done but its cache entry is gone"
            )
        actual = result_payload_digest(stored)
        if actual != expected:
            raise WorkloadError(
                f"run {run_id!r} point {app}/{variant}/{digest[:12]} "
                f"cache payload digest {actual[:12]} != journaled "
                f"{expected[:12]}"
            )
        results.append(serialize.characterisation_from_dict(stored))
    return results
