"""Accelerator-suite fixtures: engines isolated from process globals."""

import pytest

from repro.engine import cache as cache_module
from repro.engine import engine as engine_module


@pytest.fixture()
def fresh_engine(tmp_path, restore_globals):
    """An engine on a private cache directory (process cache re-pointed)."""
    root = tmp_path / "engine-cache"
    cache_module.use_cache_dir(root)
    return engine_module.Engine(cache_dir=root)
