"""Durable run journal: crash-safe, resumable sweep records.

Every journaled ``fan_out`` appends to one JSONL file under the cache
directory — ``<cache_dir>/runs/<run_id>.jsonl`` — so an interrupted
sweep (SIGINT/SIGTERM, OOM kill, CI preemption) loses at most its
in-flight window and leaves a complete record of what ran:

* a ``run_start`` header: schema, run id, creation time, the full
  ordered point list (app, variant and the *complete* config payload,
  so a resume can reconstruct the sweep without the caller), the sweep
  digest, the simulation-source digest and the job count;
* one ``point_done`` record per completed point, carrying the digest of
  the point's canonical result payload so a resume can re-verify that
  the cached result it replays is byte-identical to what was journaled;
* one ``point_failed`` record per point that exhausted its retries;
* one ``counters`` record per attempt that counted anything, mapping
  each engine counter name (:mod:`repro.engine.telemetry`) to how much
  it grew during that attempt; the reader sums them into
  ``RunState.counters``, and reads the ``batch_stats``,
  ``stream_stats`` and ``accel_stats`` records of older journals into
  the same dict under ``batch.``, ``stream.`` and ``accel.`` names;
* a ``run_complete`` footer once the sweep has drained.

Records are written one JSON object per line, flushed and fsync'd
individually, so the journal on disk is always a prefix of the logical
record stream. Reads are **torn-tail tolerant**: a final line truncated
mid-record (the signature of a crash during append) is ignored rather
than raised, and every fully-written record before it is preserved —
a resume therefore never double-runs a journaled point and never drops
a completed one. A malformed line *before* the tail marks the journal
corrupt (something other than an append crash damaged it), which
``repro runs`` surfaces instead of silently resuming from bad state.

**Lease records** (the sweep-service work-claiming layer, see
:mod:`repro.service.claims` and ``docs/service.md``) extend the same
file so several worker processes can drain one run concurrently:

* ``point_claimed`` — a worker's bid for one point, carrying the
  worker id, the bid time, and an absolute lease expiry;
* ``point_heartbeat`` — a lease renewal by the current owner;
* ``point_released`` — a voluntary give-back (the worker hit an error
  and wants the point immediately reclaimable);
* ``worker_stats`` — one worker's claim/steal/heartbeat counters,
  appended when it finishes draining (read back as an open set of
  integer counters, so journals from older workers that journaled
  more counters still load).

Claim arbitration is **file order**: appends to an ``O_APPEND`` file
serialize, so every reader replays the records in the same order and
computes the same owner. A claim wins iff, at its recorded bid time,
the point had no live lease held by another worker (first-writer wins;
an expired lease loses to a later bid — that is the crash-recovery
steal). Heartbeats renew only the current owner's lease; a stale
heartbeat from a worker that already lost its lease is void. All four
record types are additive: readers that predate them skip unknown
records, and the journal schema is unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.digest import config_digest, sim_source_digest, sweep_digest
from repro.engine.serialize import config_from_dict, config_to_dict
from repro.errors import WorkloadError

#: Journal record schema. Bump on incompatible record-shape changes;
#: readers refuse to resume from a newer schema than they understand.
JOURNAL_SCHEMA = 1

#: Record types, in the order a healthy journal contains them.
RECORD_START = "run_start"
RECORD_RESUMED = "run_resumed"
RECORD_DONE = "point_done"
RECORD_FAILED = "point_failed"
RECORD_COUNTERS = "counters"
RECORD_COMPLETE = "run_complete"
RECORD_CLAIMED = "point_claimed"
RECORD_HEARTBEAT = "point_heartbeat"
RECORD_RELEASED = "point_released"
RECORD_WORKER = "worker_stats"

#: Per-feature counter records written before ``counters`` existed. The
#: reader adds each field ``k`` to ``RunState.counters`` as
#: ``<prefix>.k``, so older journals still list and resume.
_LEGACY_COUNTER_RECORDS = {
    "batch_stats": "batch",
    "stream_stats": "stream",
    "accel_stats": "accel",
}

#: ``RunState.status`` values (also what ``repro runs`` prints).
STATUS_COMPLETE = "complete"
STATUS_RESUMABLE = "resumable"
STATUS_CORRUPT = "corrupt"


class JournalWarning(UserWarning):
    """A journal was damaged or unreadable but listing/pruning went on.

    Emitted (never raised) by :func:`list_runs` and :func:`prune_runs`
    so batch operations over a runs directory survive one bad file —
    the corrupt entry is still reported (``repro runs`` renders it as
    ``corrupt``), it just cannot abort its neighbours.
    """


@dataclass(frozen=True)
class Lease:
    """One point's live claim: who owns it and until when."""

    worker: str
    expires: float

    def live(self, now: float) -> bool:
        return self.expires > now


def runs_root(cache_root: Path | str) -> Path:
    """Where journals live (outside the schema-versioned entry roots)."""
    return Path(cache_root) / "runs"


def journal_path(cache_root: Path | str, run_id: str) -> Path:
    return runs_root(cache_root) / f"{run_id}.jsonl"


def new_run_id() -> str:
    """A sortable-by-time, collision-safe run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


def _key_fields(key: tuple[str, str, str]) -> dict:
    app, variant, digest = key
    return {"app": app, "variant": variant, "config_digest": digest}


class RunJournal:
    """Append-side handle for one run's journal file.

    Use :meth:`create` for a fresh sweep (writes the header) or
    :meth:`reopen` to continue an interrupted one (appends a
    ``run_resumed`` marker). Every ``record_*`` call appends one line,
    flushes, and fsyncs before returning, so a record the caller saw
    acknowledged survives any later crash.
    """

    def __init__(self, path: Path, run_id: str, handle) -> None:
        self.path = path
        self.run_id = run_id
        self._handle = handle
        # A worker's heartbeat thread appends concurrently with its
        # main loop; one lock keeps each record's write+fsync atomic
        # within the process (across processes, O_APPEND serializes).
        self._lock = threading.Lock()

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        cache_root: Path | str,
        points,
        jobs: int,
        run_id: str | None = None,
    ) -> "RunJournal":
        """Open a new journal and write its ``run_start`` header.

        ``points`` is the sweep's full ordered request list of
        ``(app, variant, CoreConfig)`` triples (duplicates included, so
        a resume rebuilds the exact ordered output).
        """
        run_id = run_id or new_run_id()
        path = journal_path(cache_root, run_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "ab")
        journal = cls(path, run_id, handle)
        journal._append({
            "record": RECORD_START,
            "schema": JOURNAL_SCHEMA,
            "run_id": run_id,
            "created": time.time(),
            "jobs": jobs,
            "source_digest": sim_source_digest(),
            "sweep_digest": sweep_digest(
                [(app, variant, config_digest(config))
                 for app, variant, config in points]
            ),
            "points": [
                {
                    "app": app,
                    "variant": variant,
                    "config": config_to_dict(config),
                    "config_digest": config_digest(config),
                }
                for app, variant, config in points
            ],
        })
        return journal

    @classmethod
    def reopen(cls, cache_root: Path | str, run_id: str) -> "RunJournal":
        """Append to an existing journal (a resume attempt)."""
        path = journal_path(cache_root, run_id)
        if not path.exists():
            raise WorkloadError(f"no journal for run {run_id!r} at {path}")
        handle = open(path, "ab")
        journal = cls(path, run_id, handle)
        journal._append({
            "record": RECORD_RESUMED,
            "run_id": run_id,
            "time": time.time(),
        })
        return journal

    @classmethod
    def attach(cls, cache_root: Path | str, run_id: str) -> "RunJournal":
        """Append to an existing journal without any marker record.

        Workers draining a run attach — they are not resuming it, so
        a ``run_resumed`` marker (which would clear the completion
        footer) must not be written.
        """
        path = journal_path(cache_root, run_id)
        if not path.exists():
            raise WorkloadError(f"no journal for run {run_id!r} at {path}")
        return cls(path, run_id, open(path, "ab"))

    # -- records -----------------------------------------------------------

    def record_point_done(
        self, key: tuple[str, str, str], result_digest: str
    ) -> None:
        self._append({
            "record": RECORD_DONE,
            **_key_fields(key),
            "result_digest": result_digest,
        })

    def record_point_failed(
        self, key: tuple[str, str, str], kind: str, error_type: str,
        message: str,
    ) -> None:
        self._append({
            "record": RECORD_FAILED,
            **_key_fields(key),
            "kind": kind,
            "error_type": error_type,
            "message": message,
        })

    def record_point_claimed(
        self,
        key: tuple[str, str, str],
        worker: str,
        lease_seconds: float,
        now: float | None = None,
    ) -> float:
        """Bid for one point; returns the absolute lease expiry.

        Appending is only half the protocol: the bid wins iff a re-read
        of the journal shows this worker as the owner (file order is
        the arbiter — see the module docstring and
        :meth:`RunState.owner_of`).
        """
        now = time.time() if now is None else now
        expires = now + lease_seconds
        self._append({
            "record": RECORD_CLAIMED,
            **_key_fields(key),
            "worker": worker,
            "time": now,
            "expires": expires,
        })
        return expires

    def record_point_heartbeat(
        self,
        key: tuple[str, str, str],
        worker: str,
        lease_seconds: float,
        now: float | None = None,
    ) -> float:
        """Renew a held lease; void if the worker no longer owns it."""
        now = time.time() if now is None else now
        expires = now + lease_seconds
        self._append({
            "record": RECORD_HEARTBEAT,
            **_key_fields(key),
            "worker": worker,
            "time": now,
            "expires": expires,
        })
        return expires

    def record_point_released(
        self, key: tuple[str, str, str], worker: str
    ) -> None:
        """Voluntarily give a claim back (immediate reclaim, no expiry)."""
        self._append({
            "record": RECORD_RELEASED,
            **_key_fields(key),
            "worker": worker,
            "time": time.time(),
        })

    def record_worker_stats(self, worker: str, stats: dict) -> None:
        """One worker's drain counters (additive record, schema unchanged)."""
        self._append({
            "record": RECORD_WORKER,
            "run_id": self.run_id,
            "worker": worker,
            **{key: int(value) for key, value in stats.items()},
        })

    def record_counters(self, counters: dict) -> None:
        """This attempt's engine counter deltas (additive record).

        ``counters`` maps counter names to how much each grew during
        the sweep. Older readers skip the record; the journal schema is
        unchanged.
        """
        self._append({
            "record": RECORD_COUNTERS,
            "run_id": self.run_id,
            "counters": {
                name: int(value) for name, value in counters.items()
            },
        })

    def record_complete(self, failures: int) -> None:
        self._append({
            "record": RECORD_COMPLETE,
            "run_id": self.run_id,
            "failures": failures,
            "time": time.time(),
        })

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _append(self, payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if self._handle is None:
            raise WorkloadError(f"journal for run {self.run_id!r} is closed")
        with self._lock:
            self._handle.write(line.encode("utf-8") + b"\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())


@dataclass
class RunState:
    """Read-side view of one journal, torn-tail tolerant."""

    path: Path
    run_id: str
    schema: int = JOURNAL_SCHEMA
    created: float = 0.0
    jobs: int = 1
    source_digest: str = ""
    sweep_digest: str = ""
    #: The sweep's full ordered request list, as journaled.
    points: list[tuple[str, str, dict]] = field(default_factory=list)
    #: key -> result payload digest (last record wins).
    done: dict[tuple[str, str, str], str] = field(default_factory=dict)
    #: key -> failure kind, for points that exhausted their retries and
    #: were never later completed.
    failed: dict[tuple[str, str, str], str] = field(default_factory=dict)
    complete: bool = False
    #: Failure count from the last ``run_complete`` footer.
    complete_failures: int = 0
    resumed: int = 0
    #: Engine counters summed over every attempt's ``counters`` record
    #: (and the legacy per-feature records).
    counters: dict[str, int] = field(default_factory=dict)
    #: Live/last lease per claimed point (dropped on ``point_done``).
    claims: dict[tuple[str, str, str], Lease] = field(default_factory=dict)
    #: Per-worker drain counters from ``worker_stats`` records.
    workers: dict[str, dict] = field(default_factory=dict)
    #: Claim bids that lost the file-order race (void records).
    claim_conflicts: int = 0
    #: Claims that took over an expired lease (crash-recovery steals).
    lease_steals: int = 0
    #: 1 if the final line was truncated mid-record (crash signature).
    torn_tail: int = 0
    #: Set when a record *before* the tail failed to parse.
    corrupt: str | None = None
    #: The header's schema when it is newer than this reader supports
    #: (0 otherwise). Such journals read as corrupt but are *never*
    #: pruned — they belong to a newer build, not to the bit bucket.
    newer_schema: int = 0

    @property
    def status(self) -> str:
        if self.corrupt is not None:
            return STATUS_CORRUPT
        if self.complete:
            return STATUS_COMPLETE
        return STATUS_RESUMABLE

    @property
    def total_points(self) -> int:
        return len(self.points)

    @property
    def unique_keys(self) -> list[tuple[str, str, str]]:
        """Deduplicated point keys, in first-seen order.

        Tolerant of a config payload that no longer round-trips (a
        journal written by a different config schema): such a point
        gets a deterministic fallback digest derived from the raw
        payload, so listing a damaged journal still counts its points
        instead of crashing ``repro runs``.
        """
        seen: dict[tuple[str, str, str], None] = {}
        for app, variant, config in self.points:
            try:
                digest = config_digest_of(config)
            except Exception:
                raw = json.dumps(
                    config, sort_keys=True, separators=(",", ":"),
                    default=str,
                )
                digest = "raw-" + hashlib.sha256(
                    raw.encode("utf-8")
                ).hexdigest()
            seen.setdefault((app, variant, digest), None)
        return list(seen)

    def pending_keys(self) -> list[tuple[str, str, str]]:
        """Unique keys not yet done and not recorded as failed."""
        return [
            key for key in self.unique_keys
            if key not in self.done and key not in self.failed
        ]

    def owner_of(
        self, key: tuple[str, str, str], now: float | None = None
    ) -> str | None:
        """The worker holding a live lease on ``key`` (None if free)."""
        lease = self.claims.get(key)
        if lease is None:
            return None
        if not lease.live(time.time() if now is None else now):
            return None
        return lease.worker

    def claimable_keys(
        self, now: float | None = None
    ) -> list[tuple[str, str, str]]:
        """Pending keys with no live lease, in sweep order."""
        now = time.time() if now is None else now
        return [
            key for key in self.pending_keys()
            if self.owner_of(key, now) is None
        ]

    def reconstruct_points(self) -> list[tuple[str, str, object]]:
        """The journaled sweep as live ``(app, variant, CoreConfig)``."""
        return [
            (app, variant, config_from_dict(config))
            for app, variant, config in self.points
        ]

    def age_seconds(self, now: float | None = None) -> float:
        reference = self.created
        if not reference:
            try:
                reference = self.path.stat().st_mtime
            except OSError:
                return 0.0
        return max(0.0, (now if now is not None else time.time()) - reference)


def config_digest_of(config_payload: dict) -> str:
    """Digest of a journaled config payload (round-trips the dataclass).

    Re-digesting through the reconstructed :class:`CoreConfig` (rather
    than hashing the stored dict directly) guarantees the digest matches
    what a fresh sweep over the same configuration would compute.
    """
    return config_digest(config_from_dict(config_payload))


def load_journal(path: Path | str) -> RunState:
    """Parse one journal file, tolerating a torn final record.

    Never raises on a truncated tail: a final line that is not valid
    JSON (or not a complete record) is counted in ``torn_tail`` and
    ignored. A bad line anywhere earlier marks the state ``corrupt``
    and parsing stops — the prefix before the damage is still reported
    so ``repro runs`` can describe what survives.
    """
    path = Path(path)
    state = RunState(path=path, run_id=path.stem)
    try:
        raw = path.read_bytes()
    except OSError as error:
        state.corrupt = f"unreadable: {error}"
        return state
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for index, line in enumerate(lines):
        last = index == len(lines) - 1
        try:
            payload = json.loads(line.decode("utf-8"))
            if not isinstance(payload, dict) or "record" not in payload:
                raise ValueError("not a journal record")
        except (ValueError, UnicodeDecodeError):
            # A final line that does not parse is the signature of a
            # crash mid-append (truncation can only strip JSON closers,
            # never fabricate them): tolerate it. Damage anywhere
            # earlier is real corruption.
            if last:
                state.torn_tail = 1
            else:
                state.corrupt = f"malformed record on line {index + 1}"
                break
            continue
        try:
            _apply_record(state, payload, index)
        except Exception as error:
            # A structurally-valid JSON line whose payload violates the
            # record shape (wrong field types, a newer writer's layout):
            # corrupt, never an exception out of a listing loop.
            state.corrupt = (
                f"malformed {payload.get('record')} record on line "
                f"{index + 1}: {type(error).__name__}"
            )
        if state.corrupt is not None:
            break
    return state


def _apply_record(state: RunState, payload: dict, index: int) -> None:
    kind = payload.get("record")
    if kind == RECORD_START:
        schema = int(payload.get("schema", 0))
        if schema > JOURNAL_SCHEMA:
            state.newer_schema = schema
            state.corrupt = (
                f"journal schema {schema} is newer than supported "
                f"{JOURNAL_SCHEMA}"
            )
            return
        state.schema = schema
        state.run_id = str(payload.get("run_id", state.run_id))
        state.created = float(payload.get("created", 0.0))
        state.jobs = int(payload.get("jobs", 1))
        state.source_digest = str(payload.get("source_digest", ""))
        state.sweep_digest = str(payload.get("sweep_digest", ""))
        try:
            state.points = [
                (str(p["app"]), str(p["variant"]), dict(p["config"]))
                for p in payload["points"]
            ]
        except (KeyError, TypeError):
            state.corrupt = f"malformed run_start header on line {index + 1}"
    elif kind == RECORD_DONE:
        try:
            key = (
                str(payload["app"]), str(payload["variant"]),
                str(payload["config_digest"]),
            )
            state.done[key] = str(payload["result_digest"])
        except KeyError:
            state.corrupt = f"malformed point_done on line {index + 1}"
            return
        state.failed.pop(key, None)
        state.claims.pop(key, None)
    elif kind == RECORD_FAILED:
        try:
            key = (
                str(payload["app"]), str(payload["variant"]),
                str(payload["config_digest"]),
            )
        except KeyError:
            state.corrupt = f"malformed point_failed on line {index + 1}"
            return
        if key not in state.done:
            state.failed[key] = str(payload.get("kind", "unknown"))
    elif kind == RECORD_CLAIMED:
        key = (
            str(payload["app"]), str(payload["variant"]),
            str(payload["config_digest"]),
        )
        if key in state.done:
            return  # bid on an already-finished point: void
        worker = str(payload["worker"])
        bid_time = float(payload["time"])
        expires = float(payload["expires"])
        lease = state.claims.get(key)
        if lease is None or lease.worker == worker:
            state.claims[key] = Lease(worker, expires)
        elif not lease.live(bid_time):
            # Expired lease loses to a later bid: crash-recovery steal.
            state.claims[key] = Lease(worker, expires)
            state.lease_steals += 1
        else:
            state.claim_conflicts += 1
    elif kind == RECORD_HEARTBEAT:
        key = (
            str(payload["app"]), str(payload["variant"]),
            str(payload["config_digest"]),
        )
        worker = str(payload["worker"])
        lease = state.claims.get(key)
        # Only the current owner renews; a stale heartbeat from a
        # worker that already lost the lease is void.
        if lease is not None and lease.worker == worker:
            state.claims[key] = Lease(worker, float(payload["expires"]))
    elif kind == RECORD_RELEASED:
        key = (
            str(payload["app"]), str(payload["variant"]),
            str(payload["config_digest"]),
        )
        lease = state.claims.get(key)
        if lease is not None and lease.worker == str(payload["worker"]):
            del state.claims[key]
    elif kind == RECORD_WORKER:
        worker = str(payload["worker"])
        state.workers[worker] = {
            key: int(value)
            for key, value in payload.items()
            if key not in ("record", "run_id", "worker")
        }
    elif kind == RECORD_COUNTERS:
        _add_counters(state, payload["counters"].items())
    elif kind in _LEGACY_COUNTER_RECORDS:
        prefix = _LEGACY_COUNTER_RECORDS[kind]
        _add_counters(state, (
            (f"{prefix}.{key}", value)
            for key, value in payload.items()
            if key not in ("record", "run_id")
        ))
    elif kind == RECORD_COMPLETE:
        state.complete = True
        state.complete_failures = int(payload.get("failures", 0))
    elif kind == RECORD_RESUMED:
        state.resumed += 1
        # A resume attempt reopens the run: a prior footer no longer
        # describes the latest attempt unless it is re-written.
        state.complete = False
    # Unknown record types from same-or-older schemas are skipped, so
    # minor additive changes stay readable.


def _add_counters(state: RunState, items) -> None:
    for name, value in items:
        state.counters[name] = state.counters.get(name, 0) + int(value)


def load_run(cache_root: Path | str, run_id: str) -> RunState:
    """Load one run's journal by id; raises if it does not exist."""
    path = journal_path(cache_root, run_id)
    if not path.exists():
        existing = ", ".join(
            sorted(state.run_id for state in list_runs(cache_root))
        ) or "none"
        raise WorkloadError(
            f"no journal for run {run_id!r} under {runs_root(cache_root)} "
            f"(existing runs: {existing})"
        )
    return load_journal(path)


def list_runs(cache_root: Path | str) -> list[RunState]:
    """All journals under ``cache_root``, newest first."""
    root = runs_root(cache_root)
    if not root.exists():
        return []
    states = [
        load_journal(path) for path in sorted(root.glob("*.jsonl"))
    ]
    for state in states:
        if state.corrupt is not None:
            warnings.warn(
                f"run {state.run_id!r}: {state.corrupt}", JournalWarning,
                stacklevel=2,
            )
    states.sort(key=lambda state: (state.created, state.run_id), reverse=True)
    return states


def prune_runs(
    cache_root: Path | str,
    max_age_seconds: float = 0.0,
    include_resumable: bool = False,
) -> int:
    """Remove finished journals older than ``max_age_seconds``.

    Resumable (interrupted) journals are kept unless
    ``include_resumable`` is set — they are the recovery record for
    work someone may still want back. Corrupt journals are treated as
    finished (there is nothing trustworthy to resume). Returns the
    number of journal files removed.
    """
    removed = 0
    now = time.time()
    for state in list_runs(cache_root):
        if state.newer_schema:
            # A newer build's journal reads as corrupt here, but it is
            # not garbage — never delete another version's run record.
            warnings.warn(
                f"run {state.run_id!r}: schema {state.newer_schema} is "
                f"newer than supported {JOURNAL_SCHEMA}; not pruning",
                JournalWarning, stacklevel=2,
            )
            continue
        if state.status == STATUS_RESUMABLE and not include_resumable:
            continue
        if state.age_seconds(now) < max_age_seconds:
            continue
        try:
            state.path.unlink()
            removed += 1
        except OSError:
            continue
    return removed
