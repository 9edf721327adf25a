"""Canonical content digests for engine cache keys.

Two ingredients address every cache entry:

* :func:`sim_source_digest` — a SHA-256 over every Python source file
  that can change a trace, a simulation result or a cached artifact:
  the kernels, the compiler, the ISA, the bio layer that generates
  kernel inputs, the micro-architectural model, the branch and
  accelerator labs, the application drivers and the profiler behind
  Figure 1, and the characterisation driver itself. Editing any of them
  yields a new digest, so stale entries are never served; untouched
  sources keep the cache warm across checkouts.
* :func:`config_digest` — a SHA-256 over the canonical JSON form of a
  :class:`~repro.uarch.config.CoreConfig` (nested predictor/BTAC/cache
  blocks included), replacing the dataclass identity/hash semantics
  the old memo key leaned on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path

from repro.isa.tracestore import TRACE_FORMAT_VERSION
from repro.uarch.config import CoreConfig

#: Bump to invalidate every cache entry on disk (layout/format changes).
#: 2: traces persist in the binary columnar v2 format.
#: 3: ``CoreConfig.predictor`` is a :class:`PredictorSpec` (kind +
#:    geometry), so every config digest — and the journaled configs
#:    they address — changed shape.
#: 4: accelerator result slots (``<variant>~accel``) joined the result
#:    store and ``repro.accel`` sources joined the source digest.
CACHE_SCHEMA_VERSION = 4

#: Packages/modules (relative to the ``repro`` package) whose source
#: participates in trace/result/artifact generation. Every cached
#: artifact's producer must live in one of them.
_SIM_SOURCE_ROOTS = (
    "isa",
    "kernels",
    "compiler",
    "bio",
    "uarch",
    "bpred",
    "accel",
    "perf/apps.py",
    "perf/characterize.py",
    "perf/profiler.py",
)

#: Hex digits kept when embedding digests in file names.
SHORT_DIGEST = 12

_source_digest_cache: str | None = None

#: Config digests already computed, keyed by ``(type, repr)``. Not by
#: the config itself: dataclass equality and hashing treat
#: ``taken_branch_penalty=2`` and ``2.0`` (or ``True`` and ``1``) as
#: one key, while their canonical JSON, and so their digests, differ.
_config_digests: dict[tuple[type, str], str] = {}

#: Entries kept before the memo starts over, so a long-lived process
#: digesting ever-new configs holds bounded memory.
_CONFIG_DIGESTS_MAX = 4096


def config_digest(config: CoreConfig) -> str:
    """Canonical digest of a configuration dataclass.

    The payload embeds the dataclass type name, so a
    :class:`~repro.accel.config.AccelConfig` digest can never collide
    with a :class:`CoreConfig` digest, even for equal field values.
    Memoised per process: a sweep digests the same few configs hundreds
    of times, and each ``asdict`` deep copy costs tens of microseconds.
    """
    if not is_dataclass(config):
        raise TypeError(f"expected a config dataclass, got {type(config)!r}")
    key = (type(config), repr(config))
    digest = _config_digests.get(key)
    if digest is None:
        payload = json.dumps(
            {"type": type(config).__name__, "config": asdict(config)},
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if len(_config_digests) >= _CONFIG_DIGESTS_MAX:
            _config_digests.clear()
        _config_digests[key] = digest
    return digest


def _iter_source_files() -> list[Path]:
    package_root = Path(__file__).resolve().parent.parent
    files: list[Path] = []
    for root in _SIM_SOURCE_ROOTS:
        path = package_root / root
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
    return files


def sim_source_digest() -> str:
    """Digest of all simulation-relevant source files (cached per process)."""
    global _source_digest_cache
    if _source_digest_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        hasher.update(f"schema:{CACHE_SCHEMA_VERSION}".encode())
        hasher.update(f"trace-format:{TRACE_FORMAT_VERSION}".encode())
        for path in _iter_source_files():
            hasher.update(str(path.relative_to(package_root)).encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _source_digest_cache = hasher.hexdigest()
    return _source_digest_cache


def point_key(app: str, variant: str, config: CoreConfig) -> tuple[str, str, str]:
    """The canonical memo key for one design point."""
    return (app, variant, config_digest(config))


def result_payload_digest(payload: dict) -> str:
    """Digest of a serialized result payload (journal re-verification).

    Computed over the same canonical JSON form the persistent cache
    stores, so "the cached entry still matches what the journal saw"
    is an exact byte-level statement.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def artifact_key(**params) -> str:
    """Digest of a cached artifact's parameters (canonical JSON).

    Together with the source digest in its path, this addresses an
    artifact: the derived numbers an experiment renders from, which
    :func:`repro.engine.engine.cached_artifact` stores. Parameters are
    JSON values; pass a config as its :func:`config_digest`.
    """
    payload = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def sweep_digest(keys: list[tuple[str, str, str]]) -> str:
    """Digest identifying one sweep's full ordered point-key list."""
    payload = json.dumps(list(keys), sort_keys=False, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
