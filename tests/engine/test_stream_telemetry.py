"""Engine counters: the engine drains pipeline counts into
``EngineStats.counters`` and journals each sweep's counter deltas in
one ``counters`` record — summed on merge, absent when nothing counted.
"""

from repro.engine.journal import load_run
from repro.engine.telemetry import EngineStats
from repro.perf.stream import drain_stream_stats
from repro.uarch.config import power5

APP = "fasta"


def _points(fxus=(2, 3)):
    return [(APP, "baseline", power5().with_fxus(f)) for f in fxus]


def _stream_counters(counters):
    return {
        name: value for name, value in counters.items()
        if name.startswith("stream.")
    }


class TestEngineStatsStreamBlock:
    def test_schema_10_has_one_counters_block(self):
        stats = EngineStats()
        payload = stats.to_dict()
        assert payload["schema"] == 10  # 10 folded the per-feature blocks
        assert payload["counters"] == {}
        for block in ("recovery", "batch", "stream", "accel"):
            assert block not in payload
        stats.count("stream.segments_consumed", 3)
        stats.count("stream.segments_consumed")
        stats.count("batch.points", 2)
        assert stats.to_dict()["counters"] == {
            "stream.segments_consumed": 4, "batch.points": 2,
        }

    def test_worker_merge_carries_stream_counters(self):
        parent, worker = EngineStats(), EngineStats()
        parent.count("stream.segments_produced", 2)
        worker.count("stream.segments_produced", 5)
        worker.count("stream.streams")
        parent.merge(worker)
        assert parent.counters == {
            "stream.segments_produced": 7, "stream.streams": 1,
        }

    def test_render_mentions_streaming_only_when_used(self):
        silent = EngineStats()
        assert "Engine counters" not in silent.render()
        silent.count("batch.fallback", 0)
        assert "Engine counters" not in silent.render()
        loud = EngineStats()
        loud.count("stream.segments_consumed", 2)
        loud.count("batch.fallback", 0)
        rendered = loud.render()
        assert "Engine counters" in rendered
        assert "stream.segments_consumed" in rendered
        assert "batch.fallback" not in rendered  # zero rows are hidden


class TestEngineDrainsStream:
    def test_characterize_collects_stream_stats(
        self, fresh_engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STREAM", "on")
        drain_stream_stats()  # clear anything earlier tests left
        fresh_engine.characterize(APP, "baseline", power5())
        counters = fresh_engine.stats.counters
        assert counters["stream.streams"] >= 2  # kernel + background
        assert (counters["stream.segments_produced"]
                == counters["stream.segments_consumed"])
        assert counters["stream.segments_produced"] >= 2
        # Drained into the engine, not left in the module accumulator.
        assert drain_stream_stats() == {}

    def test_stream_off_leaves_block_empty(
        self, fresh_engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STREAM", "off")
        drain_stream_stats()
        fresh_engine.characterize(APP, "baseline", power5())
        assert _stream_counters(fresh_engine.stats.counters) == {}


class TestJournalStreamRecord:
    def test_sweep_journals_stream_stats(self, fresh_engine, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM", "on")
        fresh_engine.characterize_many(
            _points(), jobs=1, batch=True, run_id="streamrun"
        )
        state = load_run(fresh_engine.cache.root, "streamrun")
        assert state.complete
        assert state.counters["stream.segments_produced"] >= 2
        assert state.counters["stream.segments_consumed"] >= 2
        assert state.counters == {
            name: value
            for name, value in fresh_engine.stats.counters.items() if value
        }

    def test_stream_off_journals_no_record(self, fresh_engine, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM", "off")
        drain_stream_stats()
        fresh_engine.characterize_many(
            _points(), jobs=1, batch=True, run_id="plainrun"
        )
        state = load_run(fresh_engine.cache.root, "plainrun")
        assert state.complete
        assert _stream_counters(state.counters) == {}
