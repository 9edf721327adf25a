"""Tests for trace serialisation (the v3 segmented format)."""

import hashlib
import struct
import zlib

import pytest

from repro.bio.scoring import BLOSUM62, GapPenalties
from repro.bio.workloads import make_family
from repro.errors import InterpreterError
from repro.isa.instructions import Instruction, Op
from repro.isa.trace import Trace, TraceEvent
from repro.isa.tracestore import (
    _FOOTER_V3,
    _INDEX_V3,
    _MAGIC_V3,
    TRACE_FORMAT_VERSION,
    SegmentedTraceReader,
    load_trace_columnar,
    save_trace_v3,
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


def _reseal_last_sid(path, value) -> int:
    """Set the last event's static id of a one-frame v3 file to
    ``value`` (``"statics"``: the table size), re-deflating the frame
    and re-sealing its CRC, the index and the footer digest; returns
    the static count."""
    blob = path.read_bytes()
    (
        events, index_offset, static_offset, static_len, statics,
        n_segments, _, end,
    ) = _FOOTER_V3.unpack(blob[-_FOOTER_V3.size:])
    assert n_segments == 1
    offset, frame_events, comp_len, _ = _INDEX_V3.unpack_from(
        blob, index_offset
    )
    payload = bytearray(zlib.decompress(blob[offset : offset + comp_len]))
    sid_end = 12 * frame_events  # pc (8 bytes) then sid (4) per event
    struct.pack_into(
        "<i", payload, sid_end - 4, statics if value == "statics" else value
    )
    frame = zlib.compress(bytes(payload))
    static_blob = blob[static_offset : static_offset + static_len]
    new_static_offset = offset + len(frame)
    index = _INDEX_V3.pack(offset, frame_events, len(frame), zlib.crc32(frame))
    digest = hashlib.sha256()
    digest.update(struct.pack("<I", zlib.crc32(frame)))
    digest.update(struct.pack("<I", zlib.crc32(static_blob)))
    footer = _FOOTER_V3.pack(
        events, new_static_offset + len(static_blob), new_static_offset,
        len(static_blob), statics, 1, digest.digest(), end,
    )
    path.write_bytes(blob[:offset] + frame + static_blob + index + footer)
    return statics


class TestRoundtrip:
    def test_simulation_identical(self, trace, tmp_path):
        """The reloaded trace must simulate to an equal SimResult."""
        path = tmp_path / "kernel.trace"
        save_trace_v3(path, Trace.from_events(trace), segment_events=64)
        loaded = load_trace_columnar(path)
        assert simulate_trace(loaded, power5()) == simulate_trace(
            trace, power5()
        )


def _assert_events_match(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        for name in TraceEvent.__slots__:
            assert getattr(a, name) == getattr(b, name), name


class TestV3Segmented:
    def test_round_trips_columnar(self, trace, tmp_path):
        path = tmp_path / "kernel.trace3"
        save_trace_v3(path, Trace.from_events(trace), segment_events=64)
        assert path.read_bytes().startswith(_MAGIC_V3)
        assert TRACE_FORMAT_VERSION == 3
        loaded = load_trace_columnar(path)
        assert isinstance(loaded, Trace)
        _assert_events_match(loaded, trace)

    def test_single_segment_and_event_list(self, trace, tmp_path):
        path = tmp_path / "one.trace3"
        save_trace_v3(path, trace)  # default segment size > trace
        _assert_events_match(load_trace_columnar(path), trace)
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
        _assert_events_match(load_trace_columnar(path), trace)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace3"
        save_trace_v3(path, Trace())
        assert len(load_trace_columnar(path)) == 0


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
            load_trace_columnar(v3_path)

    def test_trailing_garbage(self, v3_path):
        v3_path.write_bytes(v3_path.read_bytes() + b"junk")
        with pytest.raises(InterpreterError):
            load_trace_columnar(v3_path)

    def test_bitflipped_segment_frame(self, v3_path):
        blob = bytearray(v3_path.read_bytes())
        blob[40] ^= 0xFF  # inside the first deflate frame
        v3_path.write_bytes(bytes(blob))
        with pytest.raises(InterpreterError, match="CRC"):
            load_trace_columnar(v3_path)

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
        (index_offset,) = struct.unpack_from(
            "<Q", blob, len(blob) - _FOOTER_V3.size + 8
        )
        blob[index_offset + _INDEX_V3.size - 1] ^= 0xFF  # first CRC
        v3_path.write_bytes(bytes(blob))
        with pytest.raises(InterpreterError, match="digest"):
            SegmentedTraceReader(v3_path)

    def test_corrupt_opcode_in_static_table(self, v3_path):
        """An out-of-range opcode in a re-sealed static blob: every CRC
        and the content digest check out, so only the record parser can
        reject it."""
        blob = v3_path.read_bytes()
        (
            events, index_offset, static_offset, _, statics, n_segments,
            _, end,
        ) = _FOOTER_V3.unpack(blob[-_FOOTER_V3.size:])
        payload = bytearray(zlib.decompress(blob[static_offset:index_offset]))
        payload[0] = 0xFE  # first static record's opcode: out of range
        sealed = zlib.compress(bytes(payload))
        index = blob[index_offset : -_FOOTER_V3.size]
        digest = hashlib.sha256()
        for k in range(n_segments):
            crc = _INDEX_V3.unpack_from(index, k * _INDEX_V3.size)[3]
            digest.update(struct.pack("<I", crc))
        digest.update(struct.pack("<I", zlib.crc32(sealed)))
        footer = _FOOTER_V3.pack(
            events, static_offset + len(sealed), static_offset,
            len(sealed), statics, n_segments, digest.digest(), end,
        )
        v3_path.write_bytes(blob[:static_offset] + sealed + index + footer)
        with pytest.raises(InterpreterError, match="corrupt v3 static"):
            load_trace_columnar(v3_path)

    @pytest.mark.parametrize("bad", ("statics", -1))
    def test_static_id_out_of_range(self, trace, tmp_path, bad):
        """A frame whose last static id is ``statics`` (one past the
        table) or negative, re-sealed so every CRC and the content
        digest check out: only the id check can reject it."""
        path = tmp_path / "one-frame.trace3"
        save_trace_v3(path, Trace.from_events(trace))
        statics = _reseal_last_sid(path, bad)
        with pytest.raises(InterpreterError, match="static id out of range"):
            load_trace_columnar(path)
        # The untouched ids still decode: the check is exactly the range.
        _reseal_last_sid(path, statics - 1)
        assert len(load_trace_columnar(path)) == len(trace)

    def test_static_id_check_beyond_one_byte(self, tmp_path):
        """A table of 300 statics (distinct register pairs): ids up to
        299 pass, 300 does not."""
        trace = Trace()
        for k in range(300):
            instruction = Instruction(Op.ADDI, rd=k % 32, ra=k // 32, imm=1)
            trace.append(k, instruction, False, k + 1, None)
        path = tmp_path / "wide.trace3"
        save_trace_v3(path, trace)
        loaded = load_trace_columnar(path)
        assert len(loaded.static) == 300 and max(loaded.sid) == 299
        _reseal_last_sid(path, "statics")
        with pytest.raises(InterpreterError, match="static id out of range"):
            load_trace_columnar(path)

    def test_truncated_mid_frames(self, v3_path):
        blob = v3_path.read_bytes()
        v3_path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(InterpreterError):
            load_trace_columnar(v3_path)


class TestErrors:
    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "legacy.trace"
        path.write_text("repro-trace v1 1\n0 li 0 1 - 3 -\n")
        with pytest.raises(InterpreterError, match="not a v3"):
            load_trace_columnar(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_trace_columnar(tmp_path / "nope.trace")
