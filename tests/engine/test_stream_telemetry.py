"""Streaming telemetry: the engine drains pipeline stats into the
``stream`` block and journals them per sweep, exactly like PR 6's
``batch_stats`` — additive counters, max-merged peaks, absent when
nothing streamed.
"""

import pytest

from repro.engine.journal import load_run
from repro.engine.telemetry import EngineStats
from repro.uarch.config import power5

APP = "fasta"


def _points(fxus=(2, 3)):
    return [(APP, "baseline", power5().with_fxus(f)) for f in fxus]


class TestEngineStatsStreamBlock:
    def test_schema_has_stream_block(self):
        payload = EngineStats().to_dict()
        assert payload["schema"] == 9  # 8 added accel, 9 dropped service
        assert payload["stream"] == {
            "streams": 0,
            "segments_produced": 0,
            "segments_consumed": 0,
            "queue_peak": 0,
            "handoffs": 0,
            "peak_segment_bytes": 0,
        }

    def test_merge_stream_folds_counts_and_peaks(self):
        stats = EngineStats()
        stats.merge_stream({
            "streams": 2, "segments_produced": 8, "segments_consumed": 8,
            "queue_peak": 2, "handoffs": 8, "peak_segment_bytes": 640,
        })
        stats.merge_stream({
            "streams": 1, "segments_produced": 4, "segments_consumed": 4,
            "queue_peak": 1, "handoffs": 4, "peak_segment_bytes": 900,
        })
        block = stats.to_dict()["stream"]
        assert block["streams"] == 3
        assert block["segments_produced"] == 12
        assert block["queue_peak"] == 2  # max, not sum
        assert block["peak_segment_bytes"] == 900

    def test_worker_merge_carries_stream_counters(self):
        parent, worker = EngineStats(), EngineStats()
        worker.merge_stream({
            "streams": 1, "segments_produced": 5, "segments_consumed": 5,
            "queue_peak": 2, "handoffs": 5, "peak_segment_bytes": 300,
        })
        parent.merge(worker)
        assert parent.to_dict()["stream"]["segments_produced"] == 5

    def test_render_mentions_streaming_only_when_used(self):
        silent = EngineStats()
        assert "Streaming" not in silent.render()
        loud = EngineStats()
        loud.merge_stream({
            "streams": 1, "segments_produced": 2, "segments_consumed": 2,
            "queue_peak": 1, "handoffs": 2, "peak_segment_bytes": 64,
        })
        assert "Streaming" in loud.render()


class TestEngineDrainsStream:
    def test_characterize_collects_stream_stats(
        self, fresh_engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STREAM", "on")
        from repro.perf.stream import drain_stream_stats

        drain_stream_stats()  # clear anything earlier tests left
        fresh_engine.characterize(APP, "baseline", power5())
        block = fresh_engine.stats.to_dict()["stream"]
        assert block["streams"] >= 2  # kernel + background pipelines
        assert block["segments_produced"] == block["segments_consumed"]
        assert block["segments_produced"] >= 2
        assert block["peak_segment_bytes"] > 0
        # Drained into the engine, not left in the module accumulator.
        assert drain_stream_stats() is None

    def test_stream_off_leaves_block_empty(
        self, fresh_engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STREAM", "off")
        fresh_engine.characterize(APP, "baseline", power5())
        assert fresh_engine.stats.to_dict()["stream"]["streams"] == 0


class TestJournalStreamRecord:
    def test_sweep_journals_stream_stats(self, fresh_engine, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM", "on")
        fresh_engine.characterize_many(
            _points(), jobs=1, batch=True, run_id="streamrun"
        )
        state = load_run(fresh_engine.cache.root, "streamrun")
        assert state.complete
        assert state.stream is not None
        assert state.stream["segments_produced"] >= 2
        assert state.stream["handoffs"] >= 2

    def test_stream_off_journals_no_record(self, fresh_engine, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM", "off")
        fresh_engine.characterize_many(
            _points(), jobs=1, batch=True, run_id="plainrun"
        )
        state = load_run(fresh_engine.cache.root, "plainrun")
        assert state.complete
        assert state.stream is None
