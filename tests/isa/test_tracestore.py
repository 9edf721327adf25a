"""Tests for trace serialisation."""

import pytest

from repro.bio.scoring import BLOSUM62, GapPenalties
from repro.bio.workloads import make_family
from repro.errors import InterpreterError
from repro.isa.trace import Trace, TraceEvent
from repro.isa.tracestore import (
    TRACE_FORMAT_VERSION,
    SegmentedTraceReader,
    load_trace,
    load_trace_columnar,
    open_trace_segments,
    save_trace,
    save_trace_v2,
    save_trace_v3,
    trace_format,
)
from repro.kernels import smith_waterman as sw
from repro.uarch.config import power5
from repro.uarch.core import simulate_trace


@pytest.fixture(scope="module")
def trace():
    family = make_family("ts", 2, 24, 0.3, seed=19)
    events = []
    sw.run("baseline", family[0], family[1], BLOSUM62,
           GapPenalties(10, 2), trace=events)
    return events


class TestRoundtrip:
    def test_fields_preserved(self, trace, tmp_path):
        path = tmp_path / "kernel.trace"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        for original, restored in zip(trace, loaded):
            assert restored.pc == original.pc
            assert restored.op == original.op
            assert restored.taken == original.taken
            assert restored.next_pc == original.next_pc
            assert restored.address == original.address
            assert restored.dst == original.dst
            assert restored.srcs == original.srcs
            assert restored.unit == original.unit
            assert restored.latency == original.latency
            assert restored.occupancy == original.occupancy

    def test_simulation_identical(self, trace, tmp_path):
        """The reloaded trace must simulate to the same cycle count."""
        path = tmp_path / "kernel.trace"
        save_trace(path, trace)
        loaded = load_trace(path)
        original = simulate_trace(trace, power5())
        restored = simulate_trace(loaded, power5())
        assert restored.cycles == original.cycles
        assert (
            restored.direction_mispredictions
            == original.direction_mispredictions
        )
        assert restored.cache.misses == original.cache.misses


def _assert_events_match(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        for name in TraceEvent.__slots__:
            assert getattr(a, name) == getattr(b, name), name


class TestV2Binary:
    def test_round_trips_columnar(self, trace, tmp_path):
        path = tmp_path / "kernel.tracebin"
        columnar = Trace.from_events(trace)
        save_trace_v2(path, columnar)
        loaded = load_trace(path)
        assert isinstance(loaded, Trace)
        _assert_events_match(loaded, trace)

    def test_accepts_event_lists_and_views(self, trace, tmp_path):
        path = tmp_path / "from_list.tracebin"
        save_trace_v2(path, trace)
        _assert_events_match(load_trace(path), trace)
        view = Trace.from_events(trace)[5:50]
        save_trace_v2(path, view)
        _assert_events_match(load_trace(path), trace[5:50])

    def test_v1_to_v2_rewrite_preserves_everything(self, trace, tmp_path):
        """v1 text -> columnar load -> v2 save -> load is lossless."""
        v1 = tmp_path / "kernel.trace"
        v2 = tmp_path / "kernel.tracebin"
        save_trace(v1, trace)
        assert trace_format(v1) == 1
        columnar = load_trace_columnar(v1)
        save_trace_v2(v2, columnar)
        assert trace_format(v2) == 2
        _assert_events_match(load_trace(v2), trace)

    def test_v2_simulates_identically(self, trace, tmp_path):
        path = tmp_path / "kernel.tracebin"
        save_trace_v2(path, Trace.from_events(trace))
        original = simulate_trace(trace, power5())
        restored = simulate_trace(load_trace(path), power5())
        assert restored.cycles == original.cycles
        assert restored.cache.misses == original.cache.misses

    def test_v2_is_smaller_than_v1(self, trace, tmp_path):
        v1 = tmp_path / "a.trace"
        v2 = tmp_path / "b.tracebin"
        save_trace(v1, trace)
        save_trace_v2(v2, Trace.from_events(trace))
        assert v2.stat().st_size < v1.stat().st_size / 2

    def test_load_trace_columnar_upconverts_v1(self, trace, tmp_path):
        path = tmp_path / "kernel.trace"
        save_trace(path, trace)
        loaded = load_trace_columnar(path)
        assert isinstance(loaded, Trace)
        _assert_events_match(loaded, trace)


class TestV2Errors:
    @pytest.fixture()
    def v2_path(self, trace, tmp_path):
        path = tmp_path / "kernel.tracebin"
        save_trace_v2(path, Trace.from_events(trace))
        return path

    def test_truncated_header(self, v2_path):
        v2_path.write_bytes(v2_path.read_bytes()[:20])
        with pytest.raises(InterpreterError):
            load_trace(v2_path)

    def test_truncated_columns(self, v2_path):
        blob = v2_path.read_bytes()
        v2_path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(InterpreterError):
            load_trace(v2_path)

    def test_trailing_garbage(self, v2_path):
        v2_path.write_bytes(v2_path.read_bytes() + b"junk")
        with pytest.raises(InterpreterError):
            load_trace(v2_path)

    def test_corrupt_opcode_in_static_table(self, v2_path):
        """An out-of-range opcode inside a *valid* deflate stream."""
        import zlib

        blob = v2_path.read_bytes()
        head, payload = blob[:27], bytearray(zlib.decompress(blob[27:]))
        payload[0] = 0xFE  # first static record's opcode: out of range
        v2_path.write_bytes(head + zlib.compress(bytes(payload)))
        with pytest.raises(InterpreterError):
            load_trace(v2_path)

    def test_bitflipped_payload(self, v2_path):
        blob = bytearray(v2_path.read_bytes())
        blob[30] ^= 0xFF  # inside the deflate stream
        v2_path.write_bytes(bytes(blob))
        with pytest.raises(InterpreterError):
            load_trace(v2_path)

    def test_format_sniffing(self, trace, tmp_path, v2_path):
        v1 = tmp_path / "text.trace"
        save_trace(v1, trace)
        assert trace_format(v1) == 1
        assert trace_format(v2_path) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises((InterpreterError, OSError)):
            trace_format(tmp_path / "nope.trace")
            load_trace(tmp_path / "nope.trace")


class TestV3Segmented:
    def test_round_trips_columnar(self, trace, tmp_path):
        path = tmp_path / "kernel.trace3"
        save_trace_v3(path, Trace.from_events(trace), segment_events=64)
        assert trace_format(path) == 3
        assert TRACE_FORMAT_VERSION == 3
        loaded = load_trace(path)
        assert isinstance(loaded, Trace)
        _assert_events_match(loaded, trace)

    def test_single_segment_and_event_list(self, trace, tmp_path):
        path = tmp_path / "one.trace3"
        save_trace_v3(path, trace)  # default segment size > trace
        _assert_events_match(load_trace(path), trace)
        reader = SegmentedTraceReader(path)
        assert reader.segment_count == 1
        reader.close()

    def test_lazy_reader_matches_eager_load(self, trace, tmp_path):
        path = tmp_path / "lazy.trace3"
        save_trace_v3(path, Trace.from_events(trace), segment_events=50)
        with SegmentedTraceReader(path) as reader:
            assert reader.events == len(trace)
            assert reader.segment_count == -(-len(trace) // 50)
            streamed = []
            for segment in reader:
                assert len(segment) <= 50
                assert segment.is_view  # read-only
                streamed.extend(segment.to_events())
        _assert_events_match(streamed, trace)

    def test_segment_iterator_input_remaps_static_ids(
        self, trace, tmp_path
    ):
        """Per-segment static tables merge into one shared table."""
        path = tmp_path / "iter.trace3"
        whole = Trace.from_events(trace)

        def fresh_table_segments():
            for view in whole.segments(40):
                yield Trace.from_events(view.to_events())

        save_trace_v3(path, fresh_table_segments())
        _assert_events_match(load_trace(path), trace)

    def test_v2_to_v3_rewrite_preserves_everything(self, trace, tmp_path):
        v2 = tmp_path / "kernel.tracebin"
        v3 = tmp_path / "kernel.trace3"
        save_trace_v2(v2, Trace.from_events(trace))
        assert trace_format(v2) == 2
        save_trace_v3(v3, load_trace_columnar(v2), segment_events=75)
        assert trace_format(v3) == TRACE_FORMAT_VERSION
        _assert_events_match(load_trace(v3), trace)

    def test_cache_reads_v2_entry_as_written(self, trace, tmp_path):
        """A hand-placed v2 entry loads from the engine cache, eager and
        streamed, and stays v2 (the cache itself only writes v3)."""
        from repro.engine.cache import PersistentCache

        cache = PersistentCache(tmp_path / "cache")
        path = cache.trace_path("blast", "baseline")
        path.parent.mkdir(parents=True, exist_ok=True)
        save_trace_v2(path, Trace.from_events(trace))
        written = path.read_bytes()
        loaded = cache.load_trace("blast", "baseline")
        _assert_events_match(loaded, trace)
        segments = cache.load_trace_segments("blast", "baseline")
        streamed = [e for seg in segments for e in seg.to_events()]
        _assert_events_match(streamed, trace)
        assert trace_format(path) == 2
        assert path.read_bytes() == written

    def test_open_trace_segments_compat_with_v1_and_v2(
        self, trace, tmp_path
    ):
        v1 = tmp_path / "a.trace"
        v2 = tmp_path / "b.tracebin"
        save_trace(v1, trace)
        save_trace_v2(v2, Trace.from_events(trace))
        for path in (v1, v2):
            streamed = [
                e
                for seg in open_trace_segments(path, segment_events=33)
                for e in seg.to_events()
            ]
            _assert_events_match(streamed, trace)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace3"
        save_trace_v3(path, Trace())
        assert len(load_trace(path)) == 0


class TestV3Errors:
    @pytest.fixture()
    def v3_path(self, trace, tmp_path):
        path = tmp_path / "kernel.trace3"
        save_trace_v3(path, Trace.from_events(trace), segment_events=60)
        return path

    def test_truncated_footer(self, v3_path):
        blob = v3_path.read_bytes()
        v3_path.write_bytes(blob[: len(blob) - 8])
        with pytest.raises(InterpreterError):
            load_trace(v3_path)

    def test_trailing_garbage(self, v3_path):
        v3_path.write_bytes(v3_path.read_bytes() + b"junk")
        with pytest.raises(InterpreterError):
            load_trace(v3_path)

    def test_bitflipped_segment_frame(self, v3_path):
        blob = bytearray(v3_path.read_bytes())
        blob[40] ^= 0xFF  # inside the first deflate frame
        v3_path.write_bytes(bytes(blob))
        with pytest.raises(InterpreterError, match="CRC"):
            load_trace(v3_path)

    def test_lazy_reader_detects_bad_frame(self, v3_path):
        blob = bytearray(v3_path.read_bytes())
        blob[40] ^= 0xFF
        v3_path.write_bytes(bytes(blob))
        # The up-front digest only covers the indexed CRCs, so the
        # reader opens fine; the flip surfaces when its frame is read.
        with SegmentedTraceReader(v3_path) as reader:
            with pytest.raises(InterpreterError, match="CRC"):
                list(reader.segments())

    def test_lazy_reader_detects_tampered_index(self, v3_path):
        """Editing an index CRC breaks the footer content digest."""
        blob = bytearray(v3_path.read_bytes())
        import struct as _struct

        from repro.isa.tracestore import _FOOTER_V3, _INDEX_V3

        (index_offset,) = _struct.unpack_from(
            "<Q", blob, len(blob) - _FOOTER_V3.size + 8
        )
        blob[index_offset + _INDEX_V3.size - 1] ^= 0xFF  # first CRC
        v3_path.write_bytes(bytes(blob))
        with pytest.raises(InterpreterError, match="digest"):
            SegmentedTraceReader(v3_path)

    def test_truncated_mid_frames(self, v3_path):
        blob = v3_path.read_bytes()
        v3_path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(InterpreterError):
            load_trace(v3_path)


class TestErrors:
    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "bogus.trace"
        path.write_text("hello world\n")
        with pytest.raises(InterpreterError):
            load_trace(path)

    def test_truncated_file(self, trace, tmp_path):
        path = tmp_path / "short.trace"
        save_trace(path, trace)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(InterpreterError):
            load_trace(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("repro-trace v1 1\n1 2 3\n")
        with pytest.raises(InterpreterError):
            load_trace(path)

    def test_unknown_opcode(self, tmp_path):
        path = tmp_path / "bad_op.trace"
        path.write_text("repro-trace v1 1\n0 frob 0 1 - - -\n")
        with pytest.raises(InterpreterError):
            load_trace(path)
