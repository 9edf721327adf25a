"""Sweep service: several worker processes draining one journaled run.

The engine's durable run journal doubles as a work queue and the
content-addressed :class:`~repro.engine.cache.PersistentCache` as the
place results meet, so every worker points at one shared cache
directory and no broker or server process is involved:

* :mod:`repro.service.claims` — journal-based work claiming: lease
  records with heartbeat renewal and expiry-based reclaim, so several
  worker processes drain one run concurrently and crash-safely;
* :mod:`repro.service.worker` — the drain loop one worker runs
  (claim, heartbeat, simulate, journal);
* :mod:`repro.service.runner` — create a claim-only run and collect
  its results (byte-identical to a serial sweep).

Everything here is stdlib-only and import-safe: importing the package
starts no threads. See ``docs/service.md`` for the claim protocol.
"""
