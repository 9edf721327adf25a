"""Suite-wide fixtures."""

import pytest

from repro.engine import cache as cache_module
from repro.engine import engine as engine_module


@pytest.fixture()
def restore_globals():
    """Snapshot/restore the process-wide cache and default engine."""
    original_cache = cache_module._active_cache
    original_engine = engine_module._default_engine
    yield
    cache_module._active_cache = original_cache
    engine_module._default_engine = original_engine
