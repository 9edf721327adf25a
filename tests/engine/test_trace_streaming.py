"""A sweep unit streams its traces from the store and holds none.

On a primed trace store, :meth:`Engine.characterize_many` reads each
kernel and background trace frame by frame on the ``perf.stream``
producer thread, and takes the baseline kernel length behind
``baseline_instructions`` from the stored trace's footer. Nothing is
decoded whole and nothing lands in the perf layer's trace memos.
"""

import pytest

from repro.engine import cache as cache_module
from repro.engine.scheduler import _result_digest
from repro.perf.characterize import (
    APP_WORKLOADS,
    VARIANTS,
    _background_cache,
    _kernel_length,
    _kernel_trace_cache,
    characterize,
    clear_trace_caches,
    kernel_trace,
)
from repro.uarch.config import power5

APP = "blast"
TWO_VARIANTS = ("baseline", "combination")
CONFIGS = (power5(), power5().with_fxus(3), power5().with_btac())


@pytest.fixture()
def empty_trace_memos():
    """Empty the perf layer's trace memos, and refill them afterwards
    so later tests keep their decoded traces."""
    saved = dict(_kernel_trace_cache), dict(_background_cache)
    clear_trace_caches()
    yield
    clear_trace_caches()
    _kernel_trace_cache.update(saved[0])
    _background_cache.update(saved[1])


class TestSweepStreamsTraces:
    def test_primed_store_sweep_holds_no_trace(
        self, fresh_engine, empty_trace_memos, monkeypatch
    ):
        # CI reruns tier-1 with REPRO_STREAM=off and REPRO_BATCH=off;
        # this property is the streaming path's, and the stream count
        # below is the batched one's.
        monkeypatch.setenv("REPRO_STREAM", "on")
        # The references also prime the store: each trace they generate
        # is persisted to the engine's cache directory.
        expected = [
            _result_digest(characterize(APP, variant, config, stream=False))
            for variant in TWO_VARIANTS
            for config in CONFIGS
        ]
        clear_trace_caches()
        decoded = []

        def whole_decode(path):
            decoded.append(path)
            raise AssertionError(f"whole-trace decode of {path}")

        monkeypatch.setattr(cache_module, "load_trace_columnar", whole_decode)
        points = [
            (APP, variant, config)
            for variant in TWO_VARIANTS
            for config in CONFIGS
        ]
        results = fresh_engine.characterize_many(points, jobs=1, batch=True)
        assert [_result_digest(result) for result in results] == expected
        assert decoded == []
        assert _kernel_trace_cache == {}
        assert _background_cache == {}
        # Two kernel streams and one background stream: the second
        # variant reads every background result from the engine's memo.
        assert fresh_engine.stats.counters["stream.streams"] == 3


class TestStoredLength:
    @pytest.mark.parametrize("app", sorted(APP_WORKLOADS))
    def test_footer_count_is_the_trace_length(self, tmp_path, app):
        store = cache_module.PersistentCache(tmp_path)
        for variant in VARIANTS:
            store.store_trace(app, variant, kernel_trace(app, variant))
        assert [store.trace_length(app, variant) for variant in VARIANTS] \
            == [len(kernel_trace(app, variant)) for variant in VARIANTS]
        assert store.counters.trace_hits == len(VARIANTS)
        assert store.counters.trace_misses == 0

    def test_missing_or_disabled_is_none(self, tmp_path):
        assert cache_module.PersistentCache(tmp_path).trace_length(
            APP, "baseline"
        ) is None
        assert cache_module.PersistentCache(None).trace_length(
            APP, "baseline"
        ) is None

    def test_truncated_trace_is_quarantined_and_regenerated(
        self, fresh_engine, empty_trace_memos
    ):
        store = cache_module.active_cache()
        trace = kernel_trace(APP, "baseline")
        store.store_trace(APP, "baseline", trace)
        path = store.trace_path(APP, "baseline")
        path.write_bytes(path.read_bytes()[:-40])
        clear_trace_caches()

        assert _kernel_length(APP) == len(trace)
        assert store.counters.evictions == 1
        assert len(list(store.quarantine_root.rglob("*.trace"))) == 1
        # The fallback regenerated the trace and stored it again.
        assert store.trace_length(APP, "baseline") == len(trace)
