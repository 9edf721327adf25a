"""Shared fixtures: engines isolated from the process-wide singletons.

The persistent cache and the default engine are per-process resources;
the suite-wide ``restore_globals`` fixture snapshots and restores them,
so engine tests can re-point the cache at a temporary directory without
leaking state into the rest of the suite.
"""

import pytest

from repro.engine import cache as cache_module
from repro.engine import engine as engine_module
from repro.engine.cache import PersistentCache
from repro.isa.trace import TraceEvent


@pytest.fixture()
def cache(tmp_path):
    """A private persistent cache (not the process-wide one)."""
    return PersistentCache(tmp_path / "cache")


@pytest.fixture()
def fresh_engine(tmp_path, restore_globals):
    """An engine on a private cache directory.

    The process-wide cache is re-pointed at the same directory — an
    ``Engine(cache_dir=...)`` no longer does that itself, and the
    perf-layer trace store persists through the process-wide cache.
    """
    root = tmp_path / "engine-cache"
    cache_module.use_cache_dir(root)
    return engine_module.Engine(cache_dir=root)


def events_equal(left: list[TraceEvent], right: list[TraceEvent]) -> bool:
    """Field-by-field trace equality (TraceEvent has no ``__eq__``)."""
    if len(left) != len(right):
        return False
    slots = TraceEvent.__slots__
    return all(
        getattr(a, slot) == getattr(b, slot)
        for a, b in zip(left, right)
        for slot in slots
    )
