"""The :class:`Engine`: cached, parallel design-point simulation.

Every design point, one config or many, core or accelerator, takes one
path: :meth:`Engine.characterize_batch` (:meth:`Engine.characterize` is
a one-config call to it). Per point it consults, in order:

1. an in-memory memo keyed by the canonical ``(app, variant,
   config-digest)`` key (not dataclass identity);
2. the persistent content-addressed cache (:mod:`repro.engine.cache`),
   read through one strict loader that evicts any entry it cannot
   trust;
3. the compute step, the only place core and accelerator points part:
   the pending core configs run as one
   :func:`repro.perf.characterize.characterize_batched` group (the
   shared frontend pass and native replay), the pending accelerator
   configs through :func:`repro.accel.lab.estimate_many`. Each result
   is then persisted, memoised and recorded. The engine also memoises
   each app's background result per config and hands that memo to the
   pipeline, since the background is the same for every code variant.

``default_engine()`` is the process-wide instance the experiment
drivers and the CLI share; it uses the process-wide persistent cache.
:func:`cached_artifact` serves the derived numbers the engine does not
compute point by point (Figure 1's profiles, the branch lab's replays,
the one-trace simulations of fig2, ext_phylip, ext_cmp_llc and the
interleaving ablation) through result slots of that same cache.
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
)
from repro.engine import serialize
from repro.engine.cache import PersistentCache, active_cache
from repro.engine.digest import (
    SHORT_DIGEST,
    artifact_key,
    config_digest,
    point_key,
    result_payload_digest,
    sim_source_digest,
)
from repro.engine.scheduler import _result_digest, fan_out
from repro.engine.telemetry import (
    SOURCE_DISK,
    SOURCE_JOURNAL,
    SOURCE_SIMULATED,
    EngineStats,
    PointRecord,
)
from repro.errors import ReproError, SimulationError, WorkloadError
from repro.perf.characterize import AppCharacterisation, characterize_batched
from repro.perf.stream import drain_stream_stats
from repro.uarch.config import CoreConfig, power5

#: Sentinel: "use the environment-resolved cache directory".
_ENV = object()


def _slot(variant: str, config) -> str:
    """The result slot a point persists under (``<variant>~accel`` for
    an accelerator estimate)."""
    return accel_slot(variant) if isinstance(config, AccelConfig) else variant


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
        #: Each memoised point's canonical payload digest, taken from
        #: the payload it was stored as or loaded from (None when
        #: persistence is off and nothing was serialised).
        self._digests: dict[tuple[str, str, str], str | None] = {}
        #: ``(app, config) -> (background SimResult, batched)``: the
        #: background is the same for every code variant of an app.
        self._backgrounds: dict = {}

    # -- design points -----------------------------------------------------

    def characterize(
        self,
        app: str,
        variant: str = "baseline",
        config: CoreConfig | None = None,
    ) -> AppCharacterisation:
        """One design point: a one-config :meth:`characterize_batch`.

        ``config`` may be a :class:`CoreConfig` (a core simulation) or
        an :class:`~repro.accel.config.AccelConfig` (an accelerator
        estimate, persisted under the ``<variant>~accel`` result slot).
        """
        (result,) = self.characterize_batch(app, variant, [config or power5()])
        return result

    def characterize_batch(
        self,
        app: str,
        variant: str,
        configs: list[CoreConfig],
    ) -> list[AppCharacterisation]:
        """Configs of one (app, variant), through memo -> disk -> compute.

        Each point is served from the memo or the persistent cache when
        it can be. The rest are computed together: the core configs as
        one :func:`repro.perf.characterize.characterize_batched` group,
        so their shared workload trace is decoded and frontend-walked
        once, and the accelerator configs through
        :func:`repro.accel.lab.estimate_many`, which builds one workload
        batch per input class. Core and accelerator configs may mix in
        one call. Every computed result is persisted and memoised on
        its own, and the telemetry carries one :class:`PointRecord` per
        point it served.
        """
        results: list = [None] * len(configs)
        keys = [point_key(app, variant, config) for config in configs]
        core: list[int] = []
        accel: list[int] = []
        for index, (key, config) in enumerate(zip(keys, configs)):
            cached = self._memo.get(key)
            if cached is not None:
                self.stats.memo_hits += 1
                results[index] = cached
                continue
            started = time.perf_counter()
            loaded = self._load(key, config)
            if loaded is not None:
                self._serve(
                    key, *loaded, time.perf_counter() - started, SOURCE_DISK
                )
                results[index] = loaded[0]
            elif isinstance(config, AccelConfig):
                accel.append(index)
            else:
                core.append(index)
        for pending, compute in ((core, self._simulate),
                                 (accel, self._estimate)):
            if not pending:
                continue
            started = time.perf_counter()
            computed = compute(app, variant, [configs[i] for i in pending])
            # One wall clock covers the group; attribute it evenly so
            # per-point MIPS stays meaningful.
            wall = (time.perf_counter() - started) / len(pending)
            for index, result in zip(pending, computed):
                key = keys[index]
                digest = self.cache.store_result_payload(
                    app, _slot(variant, configs[index]), key[2],
                    serialize.characterisation_to_dict(result),
                )
                self._serve(key, result, digest, wall, SOURCE_SIMULATED)
                results[index] = result
        return results

    def _simulate(self, app, variant, configs) -> list[AppCharacterisation]:
        """Compute step for core configs: one shared kernel group."""
        drain_stream_stats()  # discard counts of others' pipelines
        results, info = characterize_batched(
            app, variant, configs, backgrounds=self._backgrounds
        )
        self.stats.count("batch.groups")
        self.stats.count("batch.points", len(configs))
        self.stats.count("batch.vectorized", info["vectorized"])
        self.stats.count("batch.fallback", info["fallback"])
        self._drain_stream()
        return results

    def _estimate(self, app, variant, configs) -> list[AccelEstimate]:
        """Compute step for accelerator configs: shared workload batches."""
        results, info = accel_estimate_many(app, variant, configs)
        self.stats.count("accel.batched", info["shared"])
        return results

    def _load(self, key, config, recorded: str | None = None):
        """One point's persisted ``(result, payload digest)``, or
        ``None`` (miss or evicted).

        The one strict loader of the memo -> disk step and of resume.
        The slot follows the config's type, and the entry must decode
        to the same kind of result. An accelerator entry must also
        address exactly this point, and with ``recorded`` (a resume)
        its payload digest must equal the one the journal acknowledged.
        Any failure evicts the entry, so the point is computed again.
        """
        app, variant, digest = key
        slot = _slot(variant, config)
        payload = self.cache.load_result_payload(app, slot, digest)
        if payload is None:
            return None
        payload_digest = result_payload_digest(payload)
        try:
            if recorded is not None and payload_digest != recorded:
                raise ValueError("entry diverged from the journal")
            result = serialize.characterisation_from_dict(payload)
            accel = isinstance(config, AccelConfig)
            if isinstance(result, AccelEstimate) != accel or (
                accel and (result.app, result.variant,
                           config_digest(result.config)) != key
            ):
                raise ValueError("entry addresses a different point")
        except (KeyError, TypeError, ValueError, SimulationError):
            self.cache.evict_result(app, slot, digest)
            return None
        return result, payload_digest

    def _serve(self, key, result, payload_digest: str | None,
               wall: float, source: str) -> None:
        """Memoise one served point and record where it came from."""
        app, variant, digest = key
        self._memo[key] = result
        self._digests[key] = payload_digest
        if isinstance(result, AccelEstimate):
            self._note_accel(result)
        self.stats.record(PointRecord(
            app=app,
            variant=variant,
            config_digest=digest[:SHORT_DIGEST],
            wall_seconds=wall,
            instructions=result.merged.instructions,
            source=source,
        ))

    def _note_accel(self, est: AccelEstimate) -> None:
        """Count one served accelerator estimate."""
        stats = self.stats
        stats.count("accel.points")
        stats.count(f"accel.{est.backend}_points")
        stats.count("accel.offload_cycles", est.result.host_cycles)
        stats.count("accel.transfer_cycles", est.result.transfer_cycles)

    def _drain_stream(self) -> None:
        """Add finished streaming pipelines' counters to this engine's."""
        for name, value in drain_stream_stats().items():
            self.stats.count(name, value)

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

        ``batch`` controls batched multi-config simulation (one
        dispatch unit, and one shared trace pass, per ``(app,
        variant)``; off, one point per unit); ``None`` defers to
        ``REPRO_BATCH`` (default on).
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
        configs = {point_key(*point): point[2] for point in points}
        source_changed = state.source_digest != sim_source_digest()
        replayed = 0
        if source_changed:
            self.stats.note(
                "simulation sources changed since the journal was "
                "written; replay skipped, all points re-run"
            )
        else:
            for key, recorded in state.done.items():
                config = configs.get(key)
                if config is None:
                    # A record for a point outside the header's sweep:
                    # ignore it rather than trusting a mismatched key.
                    continue
                if key in self._memo:
                    replayed += 1
                    continue
                started = time.perf_counter()
                # An entry that diverged from what the journal saw is
                # quarantined, and the point re-runs.
                loaded = self._load(key, config, recorded)
                if loaded is None:
                    continue
                self._serve(
                    key, *loaded, time.perf_counter() - started,
                    SOURCE_JOURNAL,
                )
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

    def adopt(
        self,
        app: str,
        variant: str,
        config: CoreConfig,
        result: AppCharacterisation,
        payload_digest: str | None = None,
    ) -> None:
        """Memoise a worker-computed result and its payload digest.

        The worker persisted the entry to the shared cache directory
        already (when persistence is on), and the scheduler merges its
        telemetry once per unit; adopting keeps the parent's memo
        coherent without a second disk round-trip.
        """
        key = point_key(app, variant, config)
        self._memo[key] = result
        self._digests[key] = payload_digest

    def result_digest(self, key: tuple[str, str, str]) -> str:
        """The canonical payload digest of memoised point ``key``, the
        one its ``point_done`` journal record carries: recorded when the
        point was served, serialised again only if none was."""
        digest = self._digests.get(key)
        if digest is None:
            digest = self._digests[key] = _result_digest(self._memo[key])
        return digest

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
        self._digests.clear()
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


#: What a payload decoder raises on an entry it cannot trust.
_UNTRUSTED = (AttributeError, KeyError, TypeError, ValueError, ReproError)


def cached_artifact(app: str, slot: str, key: str, compute, encode, decode):
    """A derived artifact, through one result slot of the process-wide
    cache: load, validate, evict and recompute, store.

    The entry at ``(app, slot, key)`` is rebuilt by ``decode(payload)``,
    which raises on a payload it cannot trust (garbled, or recording
    another address); such an entry is quarantined. On a miss,
    ``compute()`` makes the value and ``encode(value)`` is stored. The
    source digest in every entry's path re-addresses the artifact when
    a covered source changes, so a producer must live in the digest's
    roots. Each call counts ``artifact.disk`` or ``artifact.computed``
    in the default engine's counters.
    """
    cache = active_cache()
    stats = default_engine().stats
    payload = cache.load_result_payload(app, slot, key)
    if payload is not None:
        try:
            value = decode(payload)
        except _UNTRUSTED:
            cache.evict_result(app, slot, key)
        else:
            stats.count("artifact.disk")
            return value
    value = compute()
    cache.store_result_payload(app, slot, key, encode(value))
    stats.count("artifact.computed")
    return value


def cached_numbers(app: str, slot: str, compute, encode, decode, **params):
    """:func:`cached_artifact` keyed by ``params`` (JSON values).

    The payload records its full key beside ``encode(value)``, so an
    entry copied or moved to another address fails validation.
    """
    key = artifact_key(**params)

    def checked(payload):
        if payload["key"] != key:
            raise ValueError("artifact entry records another key")
        return decode(payload["value"])

    return cached_artifact(
        app, slot, key, compute,
        lambda value: {"key": key, "value": encode(value)}, checked,
    )
