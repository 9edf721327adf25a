"""Journal-based work claiming: the lease protocol one worker speaks.

The run journal is the only coordination medium — there is no broker
process and no lock server. Appends to an ``O_APPEND`` file serialize,
so every reader replays the same record order and computes the same
owner for every point (see :mod:`repro.engine.journal` for the
arbitration rules). A worker claims a point in two steps:

1. append a ``point_claimed`` bid (worker id, bid time, lease expiry);
2. re-read the journal and check :meth:`RunState.owner_of` — the bid
   won iff this worker is now the owner.

The lease invariants the protocol maintains:

* a point with a live lease held by another worker is never claimed;
* an expired lease loses to any later bid (crash-recovery steal);
* heartbeats renew only the current owner's lease — a stale heartbeat
  from a worker that already lost its lease is void;
* ``point_done`` clears the lease; a worker that lost its lease while
  computing must not journal its (identical, deterministic) result —
  :meth:`ClaimClient.record_done` re-checks ownership first, so each
  point gets exactly one ``point_done`` record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.engine.journal import RunJournal, RunState, load_run

#: Default lease duration. Long enough that one design point simulates
#: comfortably inside it with heartbeats to spare; short enough that a
#: crashed worker's points are reclaimed promptly.
DEFAULT_LEASE_SECONDS = 30.0


@dataclass
class ClaimStats:
    """One worker's claim-protocol counters (journaled on finish)."""

    claims: int = 0
    claim_conflicts: int = 0
    claim_steals: int = 0
    heartbeats: int = 0
    released: int = 0
    lost_leases: int = 0

    def as_dict(self) -> dict:
        return {
            "claims": self.claims,
            "claim_conflicts": self.claim_conflicts,
            "claim_steals": self.claim_steals,
            "heartbeats": self.heartbeats,
            "released": self.released,
            "lost_leases": self.lost_leases,
        }


class ClaimClient:
    """One worker's handle on a run's lease protocol.

    Thin and stateless beyond counters: every decision re-reads the
    journal, so two clients in different processes can never disagree
    about ownership (they read the same bytes in the same order).
    """

    def __init__(
        self,
        cache_root: Path | str,
        run_id: str,
        worker_id: str,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> None:
        self.cache_root = Path(cache_root)
        self.run_id = run_id
        self.worker_id = worker_id
        self.lease_seconds = float(lease_seconds)
        self.journal = RunJournal.attach(cache_root, run_id)
        self.stats = ClaimStats()

    # -- reads -------------------------------------------------------------

    def state(self) -> RunState:
        """A fresh read of the whole journal (the source of truth)."""
        return load_run(self.cache_root, self.run_id)

    # -- the protocol ------------------------------------------------------

    def try_claim(
        self, key: tuple[str, str, str], state: RunState | None = None
    ) -> bool:
        """Bid for ``key``; True iff this worker now owns the lease.

        ``state`` lets a drain loop reuse the read it already holds for
        the pre-checks; the post-bid confirmation always re-reads.
        """
        now = time.time()
        state = state if state is not None else self.state()
        if key in state.done or key in state.failed:
            return False
        owner = state.owner_of(key, now)
        if owner is not None and owner != self.worker_id:
            self.stats.claim_conflicts += 1
            return False
        prior = state.claims.get(key)
        stealing = prior is not None and prior.worker != self.worker_id
        self.journal.record_point_claimed(
            key, self.worker_id, self.lease_seconds, now=now
        )
        confirmed = self.state()
        if confirmed.owner_of(key, now) != self.worker_id:
            # Lost the file-order race to a concurrent bidder.
            self.stats.claim_conflicts += 1
            return False
        self.stats.claims += 1
        if stealing:
            self.stats.claim_steals += 1
        return True

    def heartbeat(self, key: tuple[str, str, str]) -> None:
        """Renew the lease (void downstream if ownership was lost)."""
        self.journal.record_point_heartbeat(
            key, self.worker_id, self.lease_seconds
        )
        self.stats.heartbeats += 1

    def release(self, key: tuple[str, str, str]) -> None:
        """Give a claim back for immediate reclaim (error paths)."""
        self.journal.record_point_released(key, self.worker_id)
        self.stats.released += 1

    def record_done(
        self, key: tuple[str, str, str], result_digest: str
    ) -> bool:
        """Journal a completion — unless ownership was lost meanwhile.

        A worker whose lease expired mid-compute may race the stealer:
        both hold byte-identical results (simulation is deterministic
        and the cache is content-addressed, so the double compute is
        harmless), but only the current owner journals, keeping the
        record stream at exactly one ``point_done`` per point.
        """
        state = self.state()
        if key in state.done:
            self.stats.lost_leases += 1
            return False
        owner = state.owner_of(key)
        if owner is not None and owner != self.worker_id:
            self.stats.lost_leases += 1
            return False
        self.journal.record_point_done(key, result_digest)
        return True

    def record_failed(
        self, key: tuple[str, str, str], kind: str, error_type: str,
        message: str,
    ) -> None:
        self.journal.record_point_failed(key, kind, error_type, message)

    # -- lifecycle ---------------------------------------------------------

    def finish(self) -> None:
        """Journal this worker's counters and close the append handle."""
        try:
            self.journal.record_worker_stats(
                self.worker_id, self.stats.as_dict()
            )
        finally:
            self.journal.close()

    def __enter__(self) -> "ClaimClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()
