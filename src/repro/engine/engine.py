"""The :class:`Engine`: cached, parallel design-point simulation.

Every simulation request flows through three layers:

1. an in-memory memo keyed by the canonical ``(app, variant,
   config-digest)`` key (not dataclass identity);
2. the persistent content-addressed cache (:mod:`repro.engine.cache`),
   which survives across processes and runs;
3. the real pipeline — a one-config
   :func:`repro.perf.characterize.characterize_batched` call, the
   shared frontend pass and native replay — whose result is then
   persisted and memoised. The engine also memoises each app's
   background result per config and hands that memo to the pipeline,
   since the background is the same for every code variant.

``default_engine()`` is the process-wide instance the experiment
drivers and the CLI share; it uses the process-wide persistent cache.
Constructing an :class:`Engine` with an explicit ``cache_dir`` gives
that engine its **own** private :class:`PersistentCache` — it never
re-points the process-wide one, so two engines' counters can never
alias. Re-pointing the global cache (which also backs the perf-layer
trace store) is an explicit act owned by the entry points:
``repro.engine.cache.use_cache_dir`` is called by the CLI's
``--cache-dir`` flags and by pool workers adopting the parent's cache
directory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.accel.config import AccelConfig
from repro.accel.lab import (
    AccelEstimate,
    accel_slot,
    estimate_many as accel_estimate_many,
    estimate_to_dict,
)
from repro.engine import serialize
from repro.engine.cache import PersistentCache, active_cache
from repro.engine.digest import (
    SHORT_DIGEST,
    config_digest,
    result_payload_digest,
    sim_source_digest,
)
from repro.engine.scheduler import fan_out
from repro.engine.telemetry import (
    SOURCE_DISK,
    SOURCE_JOURNAL,
    SOURCE_SIMULATED,
    EngineStats,
    PointRecord,
)
from repro.errors import WorkloadError
from repro.perf.characterize import AppCharacterisation, characterize_batched
from repro.uarch.config import CoreConfig, power5

#: Sentinel: "use the environment-resolved cache directory".
_ENV = object()


class Engine:
    """Single entry point for (app, variant, config) simulations."""

    def __init__(self, cache_dir=_ENV, jobs: int | None = None) -> None:
        if cache_dir is _ENV:
            self.cache: PersistentCache = active_cache()
        else:
            # A private store: constructing an engine must never re-point
            # the process-wide cache under an earlier engine's feet.
            self.cache = PersistentCache(cache_dir)
        self.jobs = jobs
        self.stats = EngineStats()
        # Telemetry reports the live cache counters, not a copy.
        self.stats.cache = self.cache.counters
        self._memo: dict[tuple[str, str, str], AppCharacterisation] = {}
        #: ``(app, config) -> (background SimResult, batched)``: the
        #: background is the same for every code variant of an app.
        self._backgrounds: dict = {}

    # -- single points -----------------------------------------------------

    def characterize(
        self,
        app: str,
        variant: str = "baseline",
        config: CoreConfig | None = None,
    ) -> AppCharacterisation:
        """One design point, through memo -> disk -> simulation.

        ``config`` may be a :class:`CoreConfig` (a core simulation) or
        an :class:`~repro.accel.config.AccelConfig` (an accelerator
        estimate, persisted under the ``<variant>~accel`` result slot).
        Both flow through the same memo, telemetry, journal and
        scheduler machinery.
        """
        config = config or power5()
        digest = config_digest(config)
        key = (app, variant, digest)
        cached = self._memo.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached

        started = time.perf_counter()
        if isinstance(config, AccelConfig):
            slot = accel_slot(variant)
            result = self._load_persistent_accel(app, variant, digest)
            source = SOURCE_DISK
            if result is None:
                from repro.accel.lab import estimate as accel_estimate

                result = accel_estimate(app, variant, config)
                self.cache.store_result_payload(
                    app, slot, digest, estimate_to_dict(result),
                )
                source = SOURCE_SIMULATED
            self._note_accel(result)
        else:
            result = self._load_persistent(app, variant, digest)
            source = SOURCE_DISK
            if result is None:
                (result,), _ = characterize_batched(
                    app, variant, [config], backgrounds=self._backgrounds
                )
                self.cache.store_result_payload(
                    app, variant, digest,
                    serialize.characterisation_to_dict(result),
                )
                source = SOURCE_SIMULATED
                self._drain_stream()
        wall = time.perf_counter() - started

        self._memo[key] = result
        self.stats.record(PointRecord(
            app=app,
            variant=variant,
            config_digest=digest[:SHORT_DIGEST],
            wall_seconds=wall,
            instructions=result.merged.instructions,
            source=source,
        ))
        return result

    def characterize_batch(
        self,
        app: str,
        variant: str,
        configs: list[CoreConfig],
    ) -> list[AppCharacterisation]:
        """Many configs of one (app, variant), sharing a trace pass.

        Equivalent to calling :meth:`characterize` once per config — the
        memo and persistent cache are consulted per point first, every
        simulated result is persisted and memoised individually, and the
        telemetry carries one :class:`PointRecord` per point — but the
        points that do need simulation run through
        :func:`repro.perf.characterize.characterize_batched`, so their
        shared workload trace is decoded and frontend-walked once.
        Both this and :meth:`characterize` pass the engine's background
        memo, so each app's background is simulated once per config
        and reused by every other code variant of that app.

        Accelerator configs in the list are peeled off and served
        through :func:`repro.accel.lab.estimate_many` (one workload
        batch construction per input class); core and accelerator
        points may mix freely in one call.
        """
        accel_indices = [
            index for index, config in enumerate(configs)
            if isinstance(config, AccelConfig)
        ]
        if accel_indices:
            results = [None] * len(configs)
            accel_set = set(accel_indices)
            core_indices = [
                index for index in range(len(configs))
                if index not in accel_set
            ]
            if core_indices:
                for index, result in zip(core_indices, self.characterize_batch(
                        app, variant,
                        [configs[index] for index in core_indices])):
                    results[index] = result
            for index, result in zip(accel_indices, self._accel_batch(
                    app, variant,
                    [configs[index] for index in accel_indices])):
                results[index] = result
            return results

        results: list[AppCharacterisation | None] = [None] * len(configs)
        digests = [config_digest(config) for config in configs]
        pending: list[int] = []
        for index, digest in enumerate(digests):
            key = (app, variant, digest)
            cached = self._memo.get(key)
            if cached is not None:
                self.stats.memo_hits += 1
                results[index] = cached
                continue
            started = time.perf_counter()
            disk = self._load_persistent(app, variant, digest)
            if disk is not None:
                self._memo[key] = disk
                self.stats.record(PointRecord(
                    app=app,
                    variant=variant,
                    config_digest=digest[:SHORT_DIGEST],
                    wall_seconds=time.perf_counter() - started,
                    instructions=disk.merged.instructions,
                    source=SOURCE_DISK,
                ))
                results[index] = disk
                continue
            pending.append(index)
        if pending:
            started = time.perf_counter()
            batch_results, info = characterize_batched(
                app, variant, [configs[index] for index in pending],
                backgrounds=self._backgrounds,
            )
            # One wall clock covers the whole batch; attribute it evenly
            # so per-point MIPS stays meaningful.
            wall = (time.perf_counter() - started) / len(pending)
            for index, result in zip(pending, batch_results):
                digest = digests[index]
                self.cache.store_result_payload(
                    app, variant, digest,
                    serialize.characterisation_to_dict(result),
                )
                self._memo[(app, variant, digest)] = result
                self.stats.record(PointRecord(
                    app=app,
                    variant=variant,
                    config_digest=digest[:SHORT_DIGEST],
                    wall_seconds=wall,
                    instructions=result.merged.instructions,
                    source=SOURCE_SIMULATED,
                ))
                results[index] = result
            self.stats.count("batch.groups")
            self.stats.count("batch.points", len(pending))
            self.stats.count("batch.vectorized", info["vectorized"])
            self.stats.count("batch.fallback", info["fallback"])
            self._drain_stream()
        return results

    def _accel_batch(
        self,
        app: str,
        variant: str,
        configs: list[AccelConfig],
    ) -> list[AccelEstimate]:
        """Accelerator side of :meth:`characterize_batch`.

        Same per-point memo/disk/store discipline as the core path; the
        points that do need estimation share one workload-batch
        construction per input class through
        :func:`repro.accel.lab.estimate_many`.
        """
        slot = accel_slot(variant)
        results: list[AccelEstimate | None] = [None] * len(configs)
        digests = [config_digest(config) for config in configs]
        pending: list[int] = []
        for index, digest in enumerate(digests):
            key = (app, variant, digest)
            cached = self._memo.get(key)
            if cached is not None:
                self.stats.memo_hits += 1
                results[index] = cached
                continue
            started = time.perf_counter()
            disk = self._load_persistent_accel(app, variant, digest)
            if disk is not None:
                self._memo[key] = disk
                self._note_accel(disk)
                self.stats.record(PointRecord(
                    app=app,
                    variant=variant,
                    config_digest=digest[:SHORT_DIGEST],
                    wall_seconds=time.perf_counter() - started,
                    instructions=disk.merged.instructions,
                    source=SOURCE_DISK,
                ))
                results[index] = disk
                continue
            pending.append(index)
        if pending:
            started = time.perf_counter()
            estimates, info = accel_estimate_many(
                app, variant, [configs[index] for index in pending]
            )
            wall = (time.perf_counter() - started) / len(pending)
            for index, est in zip(pending, estimates):
                digest = digests[index]
                self.cache.store_result_payload(
                    app, slot, digest, estimate_to_dict(est),
                )
                self._memo[(app, variant, digest)] = est
                self._note_accel(est)
                self.stats.record(PointRecord(
                    app=app,
                    variant=variant,
                    config_digest=digest[:SHORT_DIGEST],
                    wall_seconds=wall,
                    instructions=est.merged.instructions,
                    source=SOURCE_SIMULATED,
                ))
                results[index] = est
            self.stats.count("accel.batched", info["shared"])
        return results

    def _load_persistent_accel(
        self, app: str, variant: str, digest: str
    ) -> AccelEstimate | None:
        """Load one accelerator estimate from its ``~accel`` slot.

        Strict like :meth:`_load_persistent`, plus an addressing check:
        an entry that decodes but describes a different point (or is not
        an accelerator payload at all) is corruption, evicted the same
        way a malformed one is.
        """
        slot = accel_slot(variant)
        payload = self.cache.load_result_payload(app, slot, digest)
        if payload is None:
            return None
        try:
            result = serialize.characterisation_from_dict(payload)
            if (not isinstance(result, AccelEstimate)
                    or result.app != app or result.variant != variant
                    or config_digest(result.config) != digest):
                raise ValueError("accel entry addresses a different point")
        except (KeyError, TypeError, ValueError):
            self.cache.evict_result(app, slot, digest)
            return None
        return result

    def _note_accel(self, est: AccelEstimate) -> None:
        """Count one served accelerator estimate."""
        stats = self.stats
        stats.count("accel.points")
        stats.count(f"accel.{est.backend}_points")
        stats.count("accel.offload_cycles", est.result.host_cycles)
        stats.count("accel.transfer_cycles", est.result.transfer_cycles)

    def _drain_stream(self) -> None:
        """Add finished streaming pipelines' counters to this engine's."""
        from repro.perf.stream import drain_stream_stats

        for name, value in drain_stream_stats().items():
            self.stats.count(name, value)

    def _load_persistent(
        self, app: str, variant: str, digest: str
    ) -> AppCharacterisation | None:
        payload = self.cache.load_result_payload(app, variant, digest)
        if payload is None:
            return None
        try:
            return serialize.characterisation_from_dict(payload)
        except (KeyError, TypeError, ValueError):
            # Structurally valid JSON with a wrong/damaged schema:
            # evict and resimulate.
            self.cache.evict_result(app, variant, digest)
            return None

    # -- fan-out -----------------------------------------------------------

    def characterize_many(
        self,
        points: list[tuple[str, str, CoreConfig]],
        jobs: int | None = None,
        *,
        on_error: str = "raise",
        timeout: float | None = None,
        retries: int | None = None,
        backoff: float | None = None,
        journal: bool = True,
        run_id: str | None = None,
        batch: bool | None = None,
    ) -> list[AppCharacterisation | None]:
        """Characterize a batch of points, in order, with fan-out.

        Fault tolerance knobs (see :mod:`repro.engine.scheduler`):
        ``timeout`` is the per-point deadline (``REPRO_POINT_TIMEOUT``),
        ``retries``/``backoff`` bound the per-point retry loop
        (``REPRO_POINT_RETRIES`` / ``REPRO_RETRY_BACKOFF``), and
        ``on_error`` picks the policy — ``"raise"`` aggregates the
        post-retry failures into a :class:`repro.errors.SweepError`,
        ``"keep_going"`` returns partial results with ``None`` in the
        failed points' slots.

        Durability: with ``journal=True`` (default) and persistence on,
        the sweep writes a crash-safe run journal and SIGINT/SIGTERM
        convert to :class:`repro.errors.SweepInterrupted`; an
        interrupted sweep continues via :meth:`resume`.

        ``batch`` controls batched multi-config simulation (grouping
        pending points that share a workload trace into one shared
        trace pass); ``None`` defers to ``REPRO_BATCH`` (default on).
        """
        return fan_out(
            self, points, jobs if jobs is not None else self.jobs,
            on_error=on_error, timeout=timeout, retries=retries,
            backoff=backoff, journal=journal, run_id=run_id,
            batch=batch,
        )

    def resume(
        self,
        run_id: str,
        jobs: int | None = None,
        *,
        on_error: str = "raise",
        timeout: float | None = None,
        retries: int | None = None,
        backoff: float | None = None,
        worker=None,
    ) -> "ResumeOutcome":
        """Continue an interrupted (or failed) journaled sweep.

        Reads ``runs/<run_id>.jsonl`` from this engine's cache
        directory, **re-verifies** every point the journal records as
        done — the persisted result must exist and its canonical
        payload digest must equal the digest journaled at completion
        time — and replays the verified points into the memo. Only the
        remainder (never-completed, failed, or verification-rejected
        points) flows through the fault-tolerant scheduler, appending
        to the same journal. The returned ordered results are therefore
        byte-identical to an uninterrupted run of the same sweep.

        A cached entry whose digest no longer matches the journal is
        quarantined and re-simulated. If the simulation sources changed
        since the journal was written, nothing is replayed (the cache
        is re-addressed by the new source digest) and the whole sweep
        re-runs — correct, just no longer warm.

        ``worker`` is an instrumentation hook (tests count worker
        invocations with it); production callers leave it ``None``.
        """
        from repro.engine import journal as journal_module

        if not self.cache.enabled:
            raise WorkloadError(
                "resume requires an enabled persistent cache "
                "(REPRO_CACHE=off disables journals too)"
            )
        state = journal_module.load_run(self.cache.root, run_id)
        if state.corrupt is not None:
            raise WorkloadError(
                f"journal for run {run_id!r} is corrupt "
                f"({state.corrupt}); refusing to resume from damaged "
                f"state"
            )
        if not state.points:
            raise WorkloadError(
                f"journal for run {run_id!r} has no run_start header; "
                "nothing to resume"
            )
        points = state.reconstruct_points()
        unique_keys = state.unique_keys
        # Accelerator results persist under the ``<variant>~accel``
        # slot; map each journaled key to the slot its payload lives in.
        slots = {
            (papp, pvariant, config_digest(pconfig)): (
                accel_slot(pvariant)
                if isinstance(pconfig, AccelConfig) else pvariant
            )
            for papp, pvariant, pconfig in points
        }
        source_changed = state.source_digest != sim_source_digest()
        replayed = 0
        if source_changed:
            self.stats.note(
                "simulation sources changed since the journal was "
                "written; replay skipped, all points re-run"
            )
        else:
            for key, recorded_digest in state.done.items():
                if key not in set(unique_keys):
                    # A record for a point outside the header's sweep:
                    # ignore it rather than trusting a mismatched key.
                    continue
                if key in self._memo:
                    replayed += 1
                    continue
                app, variant, digest = key
                slot = slots.get(key, variant)
                started = time.perf_counter()
                payload = self.cache.load_result_payload(
                    app, slot, digest
                )
                if payload is None:
                    continue
                if result_payload_digest(payload) != recorded_digest:
                    # The cache diverged from what the journal saw:
                    # quarantine the entry and re-simulate the point.
                    self.cache.evict_result(app, slot, digest)
                    continue
                try:
                    result = serialize.characterisation_from_dict(payload)
                except (KeyError, TypeError, ValueError):
                    self.cache.evict_result(app, slot, digest)
                    continue
                self._memo[key] = result
                if isinstance(result, AccelEstimate):
                    self._note_accel(result)
                self.stats.record(PointRecord(
                    app=app,
                    variant=variant,
                    config_digest=digest[:SHORT_DIGEST],
                    wall_seconds=time.perf_counter() - started,
                    instructions=result.merged.instructions,
                    source=SOURCE_JOURNAL,
                ))
                replayed += 1

        journal = journal_module.RunJournal.reopen(self.cache.root, run_id)
        results = fan_out(
            self, points, jobs if jobs is not None else self.jobs,
            on_error=on_error, timeout=timeout, retries=retries,
            backoff=backoff, worker=worker, journal=journal,
        )
        return ResumeOutcome(
            run_id=run_id,
            results=results,
            total_points=len(points),
            unique_points=len(unique_keys),
            replayed=replayed,
            submitted=len(unique_keys) - replayed,
            source_changed=source_changed,
        )

    def prefetch(
        self,
        points: list[tuple[str, str, CoreConfig]],
        jobs: int | None = None,
        *,
        on_error: str = "raise",
        batch: bool | None = None,
    ) -> None:
        """Populate the memo for ``points`` (drivers then run serially)."""
        self.characterize_many(points, jobs, on_error=on_error, batch=batch)

    def adopt(
        self,
        app: str,
        variant: str,
        config: CoreConfig,
        result: AppCharacterisation,
        stats: EngineStats | None = None,
    ) -> None:
        """Merge a worker-computed result (and its telemetry) back in.

        The worker persisted the entry to the shared cache directory
        already (when persistence is on); adopting keeps the parent's
        memo and telemetry coherent without a second disk round-trip.
        """
        self._memo[(app, variant, config_digest(config))] = result
        if stats is not None:
            self.stats.merge(stats)

    def memoised_results(self) -> list[AppCharacterisation]:
        """Every characterisation this engine currently holds in memory.

        The validation gate (:mod:`repro.validate`) checks these after
        a sweep; insertion order follows completion order.
        """
        return list(self._memo.values())

    def memoised_points(self) -> dict:
        """Memo snapshot keyed ``(app, variant, config_digest)``.

        The validation gate needs the configuration digest to decide
        which calibrated bands apply to a point.
        """
        return dict(self._memo)

    # -- maintenance -------------------------------------------------------

    def clear(self, persistent: bool = False) -> int:
        """Drop the memo and the background memo, so the next point
        simulates its background again; with ``persistent=True`` also
        the disk cache."""
        self._memo.clear()
        self._backgrounds.clear()
        removed = 0
        if persistent:
            removed = self.cache.clear()
        return removed

    def cache_stats(self) -> dict:
        stats = self.cache.stats()
        stats["memo_entries"] = len(self._memo)
        return stats


@dataclass
class ResumeOutcome:
    """What :meth:`Engine.resume` did, for reporting."""

    run_id: str
    results: list = field(repr=False)
    total_points: int = 0
    unique_points: int = 0
    #: Journaled points replayed after digest re-verification.
    replayed: int = 0
    #: Points that went back through the scheduler (some may still be
    #: served from the persistent cache rather than re-simulated).
    submitted: int = 0
    source_changed: bool = False


_default_engine: Engine | None = None


def default_engine() -> Engine:
    """The process-wide engine shared by experiments and the CLI."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine
