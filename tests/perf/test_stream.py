"""Streaming orchestration: switches, the pipelined queue, stats.

``repro.perf.stream`` is pure glue — environment switches, the bounded
producer/consumer queue, and the run-wide telemetry accumulator — so
its contract is behavioural: the pipeline is transparent (same
segments, same order, same errors as the sequential iterator), never
hangs when abandoned, and counts what flowed through it. The
characterisation entry points must produce identical results with the
pipeline on and off.
"""

import pytest

from repro.engine.serialize import result_to_dict
from repro.errors import WorkloadError
from repro.perf.characterize import (
    background_stream,
    characterize,
    characterize_batched,
)
from repro.perf.stream import (
    DEFAULT_SEGMENT_EVENTS,
    drain_stream_stats,
    pipelined,
    resolve_stream,
    segment_events,
)
from repro.uarch.config import power5


class TestSwitches:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_STREAM", raising=False)
        assert resolve_stream() is True

    @pytest.mark.parametrize("value", ["off", "0", "false", "no"])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_STREAM", value)
        assert resolve_stream() is False

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM", "off")
        assert resolve_stream(True) is True
        monkeypatch.delenv("REPRO_STREAM", raising=False)
        assert resolve_stream(False) is False

    def test_segment_events_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEGMENT_EVENTS", raising=False)
        assert segment_events() == DEFAULT_SEGMENT_EVENTS

    def test_segment_events_env_and_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEGMENT_EVENTS", "4096")
        assert segment_events() == 4096
        assert segment_events(128) == 128  # explicit beats env

    def test_segment_events_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEGMENT_EVENTS", "lots")
        with pytest.raises(WorkloadError):
            segment_events()
        monkeypatch.delenv("REPRO_SEGMENT_EVENTS", raising=False)
        with pytest.raises(WorkloadError):
            segment_events(0)


class TestPipelined:
    def test_transparent_order(self):
        items = list(range(50))
        assert list(pipelined(iter(items))) == items

    def test_counts_what_flowed(self):
        drain_stream_stats()  # reset whatever earlier tests left
        list(pipelined(iter(range(10))))
        assert drain_stream_stats() == {
            "stream.streams": 1,
            "stream.segments_produced": 10,
            "stream.segments_consumed": 10,
        }
        assert drain_stream_stats() == {}  # reset on drain

    def test_producer_error_reaches_consumer(self):
        def explodes():
            yield 1
            yield 2
            raise RuntimeError("producer died")

        consumed = []
        with pytest.raises(RuntimeError, match="producer died"):
            for item in pipelined(explodes()):
                consumed.append(item)
        # In-flight segments drain before the error surfaces.
        assert consumed == [1, 2]

    def test_abandoned_consumer_reaps_producer(self):
        """Breaking out early must unblock and join the producer even
        while it is waiting on a full queue."""
        def endless():
            n = 0
            while True:
                yield n
                n += 1

        stream = pipelined(endless(), depth=1)
        assert next(stream) == 0
        stream.close()  # generator finally: abandon, drain, join

    def test_rejects_bad_depth(self):
        with pytest.raises(WorkloadError):
            list(pipelined(iter(()), depth=0))


class TestStatsAccumulator:
    def test_record_and_drain(self):
        """One drain hands off the sum over every pipeline since the
        last one."""
        drain_stream_stats()
        list(pipelined(iter(range(3))))
        list(pipelined(iter(range(4))))
        assert drain_stream_stats() == {
            "stream.streams": 2,
            "stream.segments_produced": 7,
            "stream.segments_consumed": 7,
        }

    def test_pipeline_records_on_completion(self):
        """Counts are added when the stream ends, abandoned or not."""
        drain_stream_stats()
        stream = pipelined(iter(range(4)))
        assert next(stream) == 0
        assert drain_stream_stats() == {}
        stream.close()
        drained = drain_stream_stats()
        assert drained["stream.streams"] == 1
        assert drained["stream.segments_consumed"] == 1
        assert 1 <= drained["stream.segments_produced"] <= 4


class TestBackgroundStream:
    def test_class_d_scales_4x_class_c(self):
        length_c, _ = background_stream("fasta", "C")
        length_d, _ = background_stream("fasta", "D")
        assert length_d == 4 * length_c

    def test_stream_is_bounded_segments(self):
        length, segments = background_stream(
            "fasta", "A", segment_events=10_000
        )
        total = 0
        for segment in segments:
            assert len(segment) <= 10_000
            total += len(segment)
        assert total == length

    def test_rejects_unknown_class_and_app(self):
        with pytest.raises(WorkloadError):
            background_stream("fasta", "Z")
        with pytest.raises(WorkloadError):
            background_stream("bogus", "C")


class TestCharacterizeStreaming:
    """Stream on == stream off, for both entry points (bit-identical)."""

    def _as_dicts(self, result):
        return (
            result_to_dict(result.kernel),
            result_to_dict(result.background),
        )

    def test_characterize_matches(self):
        config = power5()
        streamed = characterize("fasta", "baseline", config, stream=True)
        monolithic = characterize(
            "fasta", "baseline", config, stream=False
        )
        assert self._as_dicts(streamed) == self._as_dicts(monolithic)

    def test_characterize_batched_matches(self):
        configs = [power5().with_fxus(f) for f in (2, 3)]
        streamed, stream_info = characterize_batched(
            "fasta", "baseline", configs, stream=True
        )
        monolithic, mono_info = characterize_batched(
            "fasta", "baseline", configs, stream=False
        )
        assert (
            [self._as_dicts(r) for r in streamed]
            == [self._as_dicts(r) for r in monolithic]
        )
        assert stream_info["vectorized"] == mono_info["vectorized"]

    def test_env_switch_reaches_characterize(self, monkeypatch):
        """REPRO_STREAM=off must hit the monolithic path (and still
        match, which is what tier-1 under REPRO_STREAM=off relies on)."""
        config = power5().with_fxus(3)
        monkeypatch.setenv("REPRO_STREAM", "off")
        off = characterize("fasta", "baseline", config)
        monkeypatch.setenv("REPRO_STREAM", "on")
        on = characterize("fasta", "baseline", config)
        assert self._as_dicts(on) == self._as_dicts(off)


class TestAbandonedClosePath:
    """Satellite fix: the pipeline's close path must neither swallow a
    producer failure the consumer never pulled, nor hang forever on a
    producer stuck inside its source iterator."""

    def test_producer_error_surfaces_on_close(self):
        """The producer died after the consumer's last pull; breaking
        out early must still raise its error, not drop it."""
        def dies_early():
            yield 0
            raise RuntimeError("source exploded")

        stream = pipelined(dies_early())
        assert next(stream) == 0
        with pytest.raises(RuntimeError, match="source exploded"):
            stream.close()

    def test_delivered_error_is_not_raised_twice(self):
        """An error the consumer already received must not fire again
        from the close path."""
        def dies_early():
            yield 0
            raise RuntimeError("producer error")

        stream = pipelined(dies_early())
        assert next(stream) == 0
        with pytest.raises(RuntimeError, match="producer error"):
            next(stream)
        stream.close()  # already delivered: close is clean

    def test_clean_close_raises_nothing(self):
        stream = pipelined(iter(range(3)))
        assert next(stream) == 0
        stream.close()  # no failure, nothing to raise

    def test_wedged_producer_surfaces_as_error(self, monkeypatch):
        """A source iterator that never returns must turn into a
        WorkloadError at the join deadline, not a silent hang."""
        import threading as _threading

        from repro.perf import stream as stream_module

        release = _threading.Event()

        def wedged():
            yield 0
            release.wait()  # parked until the test lets it go

        monkeypatch.setattr(stream_module, "JOIN_TIMEOUT_SECONDS", 0.2)
        stream = stream_module.pipelined(wedged())
        assert next(stream) == 0
        try:
            with pytest.raises(WorkloadError, match="failed to stop"):
                stream.close()
        finally:
            release.set()  # let the daemon thread exit
