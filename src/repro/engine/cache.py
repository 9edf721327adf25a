"""Persistent content-addressed cache for traces and results.

Layout (under a versioned root so schema bumps invalidate wholesale)::

    <cache_dir>/v<SCHEMA>/
        traces/<app>/<variant>-<source_digest12>.trace
        results/<app>/<variant>-<source_digest12>-<config_digest12>.json

Traces use the one :mod:`repro.isa.tracestore` format, **v3
segmented binary** — "expensive to regenerate but cheap to
re-simulate", and streamable frame by frame — and results the strict
JSON schema of :mod:`repro.engine.serialize` (stored here as opaque
dicts; the engine layer (de)serialises). The trace format version is
folded into the source digest, so a format bump re-addresses every
entry. Every read is corruption-safe: a truncated, malformed or
partially-written entry — or any non-v3 file placed at a trace path —
is evicted and treated as a miss, never raised to the caller.

The cache directory resolves, in order: an explicit path, the
``REPRO_CACHE_DIR`` environment variable, then
``$XDG_CACHE_HOME/repro-power5`` (``~/.cache/repro-power5``). Setting
``REPRO_CACHE=off`` (or ``0``/``false``/``no``) disables persistence
entirely; every operation then degrades to a miss/no-op.

Writes are atomic (temp file + ``os.replace``) so concurrent workers
sharing one cache directory can never expose half-written entries.

The store is self-healing: corrupt entries are **quarantined** (moved
under ``<cache_dir>/quarantine/``, preserving the evidence) rather than
silently unlinked, and :meth:`PersistentCache.gc` (``repro cache gc``)
sweeps the ``.tmp-*`` litter left behind by killed workers and
validates + quarantines damaged entries in place.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.digest import (
    CACHE_SCHEMA_VERSION,
    SHORT_DIGEST,
    sim_source_digest,
)
from repro.errors import ReproError
from repro.isa.trace import Trace, TraceEvent
from repro.isa.tracestore import (
    TRACE_FORMAT_VERSION,
    SegmentedTraceReader,
    load_trace_columnar,
    open_trace_segments,
    save_trace_v3,
)

_DISABLE_VALUES = {"0", "off", "false", "no"}

#: Per-process random disambiguator for atomic-write temp names. The
#: PID alone is not unique across containers sharing one mount (two
#: namespaces can both be PID 7), so every writer also carries eight
#: random hex digits drawn once per process.
_TMP_RANDOM = os.urandom(4).hex()


def tmp_suffix() -> str:
    """The atomic-write temp suffix for this process.

    Computed per call so the PID stays correct across ``fork()``
    (forked workers inherit the module but get their own PID); the
    random component is shared within one machine, where PIDs already
    disambiguate.
    """
    return f".tmp-{os.getpid()}-{_TMP_RANDOM}"


def _is_tmp(path: Path) -> bool:
    """Whether ``path`` is an in-flight atomic-write temp file."""
    return path.name.startswith(".") and ".tmp-" in path.name


def _iter_files(root: Path):
    """Walk the files under ``root``, tolerant of concurrent writers.

    ``Path.rglob`` raises :class:`OSError` if a directory vanishes
    under the walk (a concurrent ``clear``/``gc``), and its ``is_file``
    checks race with ``os.replace``. This walker skips whatever
    vanishes and keeps going — maintenance scans must never fail
    because another worker is busy.
    """
    stack = [root]
    while stack:
        directory = stack.pop()
        try:
            entries = list(os.scandir(directory))
        except OSError:
            continue
        for entry in entries:
            try:
                if entry.is_dir(follow_symlinks=False):
                    stack.append(Path(entry.path))
                elif entry.is_file(follow_symlinks=False):
                    yield Path(entry.path)
            except OSError:
                continue


def _stored_events(path: Path) -> int:
    """A stored trace's event count, from its validated v3 footer."""
    with SegmentedTraceReader(path) as reader:
        return reader.events


def default_cache_dir() -> Path | None:
    """Resolve the cache root from the environment (None = disabled)."""
    if os.environ.get("REPRO_CACHE", "").strip().lower() in _DISABLE_VALUES:
        return None
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return Path(explicit)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-power5"


@dataclass
class CacheCounters:
    """Process-local hit/miss accounting (part of engine telemetry)."""

    trace_hits: int = 0
    trace_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    evictions: int = 0
    quarantined: int = 0

    def to_dict(self) -> dict:
        return {
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
        }

    def merge(self, other: "CacheCounters") -> None:
        self.trace_hits += other.trace_hits
        self.trace_misses += other.trace_misses
        self.result_hits += other.result_hits
        self.result_misses += other.result_misses
        self.evictions += other.evictions
        self.quarantined += other.quarantined


class PersistentCache:
    """Content-addressed trace/result store under one directory."""

    def __init__(self, root: Path | str | None) -> None:
        self.root = Path(root) if root is not None else None
        self.counters = CacheCounters()

    @property
    def enabled(self) -> bool:
        return self.root is not None

    @property
    def version_root(self) -> Path:
        if self.root is None:
            raise ReproError("persistent cache is disabled")
        return self.root / f"v{CACHE_SCHEMA_VERSION}"

    @property
    def quarantine_root(self) -> Path:
        """Where corrupt entries are moved (outside every version root)."""
        if self.root is None:
            raise ReproError("persistent cache is disabled")
        return self.root / "quarantine"

    # -- path derivation ---------------------------------------------------

    def trace_path(self, app: str, variant: str) -> Path:
        digest = sim_source_digest()[:SHORT_DIGEST]
        return self.version_root / "traces" / app / f"{variant}-{digest}.trace"

    def result_path(self, app: str, variant: str, config_digest: str) -> Path:
        digest = sim_source_digest()[:SHORT_DIGEST]
        name = f"{variant}-{digest}-{config_digest[:SHORT_DIGEST]}.json"
        return self.version_root / "results" / app / name

    # -- traces ------------------------------------------------------------

    def load_trace(self, app: str, variant: str) -> Trace | None:
        """The cached trace, columnar, or None (miss or evicted
        corruption)."""
        return self._read_trace(app, variant, load_trace_columnar)

    def load_trace_segments(self, app: str, variant: str):
        """A lazy segment iterator over the cached trace, or None.

        Entries stream frame by frame with O(segment) live memory.
        Structural problems surface as an eviction + miss exactly like
        :meth:`load_trace` — but note that per-segment corruption in a
        lazy stream can only be detected when the bad frame is reached,
        so consumers see :class:`~repro.errors.InterpreterError` from
        the iterator in that (already-digest-checked, hence vanishingly
        rare) case.
        """
        return self._read_trace(app, variant, open_trace_segments)

    def trace_length(self, app: str, variant: str) -> int | None:
        """The cached trace's event count, or None (miss or evicted
        corruption), read from the validated v3 footer without
        inflating a frame."""
        return self._read_trace(app, variant, _stored_events)

    def store_trace(
        self, app: str, variant: str, events: Trace | list[TraceEvent]
    ) -> None:
        if not self.enabled:
            return
        path = self.trace_path(app, variant)
        self._atomic_write(path, lambda tmp: save_trace_v3(tmp, events))

    def store_trace_segments(self, app: str, variant: str, segments) -> None:
        """Persist an iterator of segments with O(segment) memory."""
        if not self.enabled:
            return
        path = self.trace_path(app, variant)
        self._atomic_write(path, lambda tmp: save_trace_v3(tmp, segments))

    # -- results -----------------------------------------------------------

    def load_result_payload(
        self, app: str, variant: str, config_digest: str
    ) -> dict | None:
        """The stored result dict, or None. Malformed JSON is evicted.

        Schema-level validation happens in the engine; it reports
        deeper corruption back through :meth:`evict_result`.
        """
        if not self.enabled:
            return None
        path = self.result_path(app, variant, config_digest)
        if not path.exists():
            self.counters.result_misses += 1
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("result payload is not an object")
        except (OSError, ValueError):
            self._evict(path)
            self.counters.result_misses += 1
            return None
        self.counters.result_hits += 1
        return payload

    def store_result_payload(
        self, app: str, variant: str, config_digest: str, payload: dict
    ) -> None:
        if not self.enabled:
            return
        path = self.result_path(app, variant, config_digest)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self._atomic_write(
            path, lambda tmp: Path(tmp).write_text(text, encoding="utf-8")
        )

    def evict_result(self, app: str, variant: str, config_digest: str) -> None:
        """Drop one result entry (deep corruption found by the engine)."""
        if self.enabled:
            self._evict(self.result_path(app, variant, config_digest))
            self.counters.result_misses += 1

    # -- maintenance -------------------------------------------------------

    def stats(self) -> dict:
        """Entry counts and on-disk footprint, for ``repro cache stats``.

        In-flight ``.tmp-*`` files are excluded from both the entry
        counts and ``total_bytes`` (they are scratch, not entries), and
        the walk tolerates files vanishing under it (a concurrent
        worker's ``os.replace``).
        """
        traces = results = total_bytes = quarantined = 0
        if self.enabled and self.version_root.exists():
            for path in _iter_files(self.version_root):
                if _is_tmp(path):
                    continue
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue  # vanished mid-scan (concurrent os.replace)
                if path.suffix == ".trace":
                    traces += 1
                elif path.suffix == ".json":
                    results += 1
        if self.enabled and self.quarantine_root.exists():
            quarantined = sum(
                1 for _ in _iter_files(self.quarantine_root)
            )
        return {
            "enabled": self.enabled,
            "cache_dir": str(self.root) if self.enabled else None,
            "schema_version": CACHE_SCHEMA_VERSION,
            "trace_format": TRACE_FORMAT_VERSION,
            "trace_entries": traces,
            "result_entries": results,
            "quarantine_entries": quarantined,
            "total_bytes": total_bytes,
            "counters": self.counters.to_dict(),
        }

    def clear(self) -> int:
        """Delete every entry (all schema versions); returns files removed.

        Tolerant of concurrent workers: a path that vanishes mid-walk is
        skipped, and a directory that gains a new file between the walk
        and its ``rmdir`` is left in place rather than raising.
        """
        if not self.enabled or not self.root.exists():
            return 0
        removed = 0
        for path in sorted(self.root.rglob("*"), reverse=True):
            try:
                if path.is_dir():
                    path.rmdir()
                else:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        return removed

    def gc(self, tmp_max_age_seconds: float = 0.0) -> dict:
        """Self-heal the store; returns a report dict.

        * removes orphaned ``.tmp-*`` files (left by killed workers)
          older than ``tmp_max_age_seconds``;
        * validates every trace/result entry under the active schema
          root and quarantines the corrupt ones (counted in
          ``counters.quarantined``); unknown file types are left alone.
        """
        report = {"tmp_removed": 0, "scanned": 0, "quarantined": 0}
        if not self.enabled or not self.root.exists():
            return report
        now = time.time()
        quarantine_root = self.quarantine_root
        for path in list(_iter_files(self.root)):
            if quarantine_root in path.parents:
                continue
            try:
                if _is_tmp(path):
                    if now - path.stat().st_mtime >= tmp_max_age_seconds:
                        path.unlink()
                        report["tmp_removed"] += 1
                    continue
            except OSError:
                continue
            valid = self._entry_is_valid(path)
            if valid is None:
                continue  # vanished mid-scan: not an entry, not corrupt
            report["scanned"] += 1
            if not valid:
                self._quarantine(path)
                report["quarantined"] += 1
        return report

    # -- internals ---------------------------------------------------------

    def _read_trace(self, app: str, variant: str, read):
        """``read(path)`` of the cached trace, or None (miss, or an entry
        ``read`` finds structurally bad, evicted); counts the hit or
        miss."""
        if not self.enabled:
            return None
        path = self.trace_path(app, variant)
        if not path.exists():
            self.counters.trace_misses += 1
            return None
        try:
            value = read(path)
        except (ReproError, OSError, ValueError):
            self._evict(path)
            self.counters.trace_misses += 1
            return None
        self.counters.trace_hits += 1
        return value

    def _atomic_write(self, path: Path, write) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}{tmp_suffix()}")
        try:
            write(tmp)
            os.replace(tmp, path)
        except OSError:
            # Cache writes are best-effort; a full/readonly disk must
            # not fail the simulation that produced the data.
            tmp.unlink(missing_ok=True)

    def _entry_is_valid(self, path: Path) -> bool | None:
        """Whether a stored entry deserializes cleanly (for :meth:`gc`).

        ``None`` means the file vanished before it could be judged —
        a concurrent writer's ``os.replace``/``unlink``, not corruption,
        so the caller must neither quarantine nor count it.
        """
        try:
            if path.suffix == ".trace":
                load_trace_columnar(path)
            elif path.suffix == ".json":
                payload = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(payload, dict):
                    return False
            return True
        except (ReproError, OSError, ValueError):
            if not path.exists():
                return None
            return False

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside: keep the evidence, free the slot."""
        try:
            relative = path.relative_to(self.root)
        except ValueError:
            relative = Path(path.name)
        destination = self.quarantine_root / relative
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            final = destination
            suffix = 0
            while final.exists():
                suffix += 1
                final = destination.with_name(f"{destination.name}.{suffix}")
            os.replace(path, final)
            self.counters.quarantined += 1
        except OSError:
            # Quarantine is best-effort; the slot must be freed either way.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def _evict(self, path: Path) -> None:
        """Quarantine a corrupt entry and count the eviction."""
        self._quarantine(path)
        self.counters.evictions += 1


_active_cache: PersistentCache | None = None


def active_cache() -> PersistentCache:
    """The process-wide cache (created from the environment on first use)."""
    global _active_cache
    if _active_cache is None:
        _active_cache = PersistentCache(default_cache_dir())
    return _active_cache


def use_cache_dir(root: Path | str | None) -> PersistentCache:
    """Re-point the process-wide cache (None disables persistence)."""
    global _active_cache
    _active_cache = PersistentCache(root)
    return _active_cache
