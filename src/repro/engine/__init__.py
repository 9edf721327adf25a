"""The simulation engine: the single entry point for design-space runs.

Layers, bottom to top:

``digest``
    Canonical content digests — a :class:`~repro.uarch.config.CoreConfig`
    digest and a digest over every source file that can change a trace,
    a simulation result or a cached artifact (kernels, compiler, ISA,
    bio inputs, core model, application drivers, profiler). Cache keys
    are built from these, so editing any simulation source invalidates
    exactly the entries it could have changed.
``serialize``
    Lossless JSON round-tripping of :class:`SimResult` and
    :class:`AppCharacterisation` (integers end to end, so reloaded
    results are byte-identical to freshly simulated ones).
``cache``
    The persistent content-addressed store: kernel/background traces in
    :mod:`repro.isa.tracestore` format and characterisation results as
    JSON, under a versioned, configurable cache directory. Corrupted
    entries are evicted and regenerated, never fatal.
``telemetry``
    Per-point wall time, cache hit/miss counters, simulated-MIPS and
    named engine counters, renderable as tables or a machine-readable
    JSON summary.
``journal``
    Durable run journal: every journaled ``fan_out`` appends fsync'd
    JSONL records under ``<cache_dir>/runs/``, torn-tail tolerant on
    read, so an interrupted sweep is resumable (``repro resume``) with
    byte-identical merged results. See ``docs/resume.md``.
``scheduler``
    Fault-tolerant process-pool fan-out of design points (``--jobs N``
    / ``REPRO_JOBS``): in-flight deduplication, one dispatch unit per
    ``(app, variant)``, per-point deadlines and bounded retries under
    one failure policy, ``BrokenProcessPool`` isolation (rebuild +
    resume), and graceful degradation to serial execution; parallel
    results are byte-identical to serial because every point is
    deterministic and computed on a fresh core.
``engine``
    :class:`Engine` ties the layers together through one per-point
    path, :meth:`Engine.characterize_batch`; ``default_engine()`` is
    the process-wide instance the experiment drivers share.
    ``cached_artifact`` stores the other numbers experiments render
    from (profiles, branch-lab replays, one-trace simulations) in
    result slots of the same cache.

Names are re-exported lazily (:func:`repro.lazy.lazy_exports`), so
importing one layer (``repro.engine.cache`` in a benchmark's set-up)
does not load the others.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    ".cache": ("PersistentCache", "active_cache", "use_cache_dir"),
    ".digest": ("CACHE_SCHEMA_VERSION", "config_digest", "sim_source_digest"),
    ".engine": ("Engine", "ResumeOutcome", "default_engine"),
    ".journal": ("RunJournal", "list_runs", "load_run", "prune_runs"),
    ".scheduler": ("resolve_jobs",),
    ".telemetry": ("EngineStats", "PointFailure", "PointRecord"),
    "repro.errors": ("SweepError", "SweepInterrupted"),
}

__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
