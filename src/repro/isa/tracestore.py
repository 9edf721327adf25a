"""Trace serialisation: one segmented, columnar on-disk format (v3).

Dynamic traces are expensive to regenerate (interpreting a kernel run)
but cheap to re-simulate under many core configurations, so persisting
them pays off for design-space sweeps. The file mirrors
:class:`~repro.isa.trace.Trace` on disk: the five event columns are cut
into bounded-size **segments**, each deflated into its own frame,
followed by one deflated static-table blob (opcode, destination,
sources — unit/latency/occupancy/flags are re-derived from the opcode
on load), an index (per-segment file offset, event count, compressed
length and CRC-32) and a fixed-size footer carrying the totals plus a
SHA-256 content digest folded over every per-segment CRC and the
static blob's CRC.

Readers either materialise the whole trace
(:func:`load_trace_columnar`) or iterate segments lazily with
O(segment) live memory (:class:`SegmentedTraceReader` /
:func:`open_trace_segments`) — seek to a frame, inflate it, simulate
it, drop it. Both go through the one validating parser of
:class:`SegmentedTraceReader`. :data:`TRACE_FORMAT_VERSION` is folded
into the engine cache's digest. Every structural problem — wrong
magic, truncation, trailing garbage, out-of-range ids, CRC or digest
mismatch — raises :class:`~repro.errors.InterpreterError`, so callers
(the engine cache) can evict instead of crashing.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import zlib
from array import array
from pathlib import Path

from repro.errors import InterpreterError
from repro.isa.instructions import OP_LIST
from repro.isa.trace import StaticTable, Trace

_MAGIC_V3 = b"repro-trace v3\x00"
#: Per-segment index record: file offset, events, deflated length,
#: CRC-32 of the deflated frame.
_INDEX_V3 = struct.Struct("<QQII")
#: Footer: total events, index offset, static-blob offset, static-blob
#: deflated length, static count, segment count, SHA-256 content
#: digest (folded over every per-segment CRC + the static blob CRC),
#: end marker.
_FOOTER_V3 = struct.Struct("<QQQIII32s8s")
_END_V3 = b"repro3\x00\x00"
#: Array typecodes of a frame's columns, in stored order: pc, sid,
#: flags, next_pc, address.
_COLUMN_TYPES = "qiBqq"

#: Default number of events per segment frame (~1.8 MiB of raw column
#: data). The engine's streaming layer overrides it via
#: ``REPRO_SEGMENT_EVENTS``.
DEFAULT_SEGMENT_EVENTS = 65536

#: On-disk trace format the engine cache writes. Part of the cache
#: digest: bumping it invalidates every persisted trace wholesale.
TRACE_FORMAT_VERSION = 3


def _column_bytes(column: array, start: int, stop: int) -> bytes:
    """Little-endian bytes of ``column[start:stop]``."""
    chunk = column[start:stop]
    if sys.byteorder == "big":
        chunk.byteswap()
    return chunk.tobytes()


def _static_payload(static) -> bytearray:
    """Serialised static-table records."""
    payload = bytearray()
    for sid in range(len(static)):
        srcs = static.srcs[sid]
        payload.append(static.ops[sid])
        payload.append(static.dsts[sid] & 0xFF)
        payload.append(len(srcs))
        payload.extend(srcs)
    return payload


def _read_column(
    data: bytes, offset: int, typecode: str, count: int, path
) -> tuple[array, int]:
    column = array(typecode)
    size = column.itemsize * count
    if offset + size > len(data):
        raise InterpreterError(f"{path}: truncated v3 trace")
    column.frombytes(data[offset : offset + size])
    if sys.byteorder == "big":
        column.byteswap()
    return column, offset + size


def _ids_below(sid: array, statics: int) -> bool:
    """Whether every static id lies in ``[0, statics)``, at C speed: as
    unsigned 32-bit values a negative id is out of range too. Decode
    runs only where traces are simulated, which loads numpy anyway."""
    import numpy as np

    return not len(sid) or int(np.frombuffer(sid, np.uint32).max()) < statics


def _parse_statics(data: bytes, statics: int, path) -> StaticTable:
    """The static table of ``statics`` serialised records, strictly."""
    static = StaticTable()
    offset = 0
    for _ in range(statics):
        if offset + 3 > len(data):
            raise InterpreterError(f"{path}: truncated v3 static table")
        op_index = data[offset]
        dst = data[offset + 1]
        n_srcs = data[offset + 2]
        offset += 3
        if op_index >= len(OP_LIST) or n_srcs > 8:
            raise InterpreterError(f"{path}: corrupt v3 static record")
        if offset + n_srcs > len(data):
            raise InterpreterError(f"{path}: truncated v3 static table")
        srcs = tuple(data[offset : offset + n_srcs])
        offset += n_srcs
        if dst >= 0x80:
            dst -= 0x100
        sid = static.intern(op_index, dst, srcs)
        if sid != len(static) - 1:
            raise InterpreterError(f"{path}: duplicate v3 static record")
    if offset != len(data):
        raise InterpreterError(f"{path}: trailing bytes in v3 static table")
    return static


def _inflate(blob: bytes, path, what: str) -> bytes:
    """Strict one-stream zlib inflate (no tail, no trailing bytes)."""
    decompressor = zlib.decompressobj()
    try:
        payload = decompressor.decompress(blob)
        payload += decompressor.flush()
    except zlib.error as error:
        raise InterpreterError(
            f"{path}: corrupt {what} ({error})"
        ) from None
    if not decompressor.eof:
        raise InterpreterError(f"{path}: truncated {what}")
    if decompressor.unused_data:
        raise InterpreterError(f"{path}: trailing bytes in {what}")
    return payload


def save_trace_v3(
    path: str | Path, trace, segment_events: int | None = None
) -> None:
    """Write a trace to ``path`` as v3 segmented binary.

    ``trace`` may be a columnar :class:`Trace` (or event list), which
    is cut into ``segment_events``-sized frames, or an **iterator of
    segments** — in that case frames are written as segments arrive,
    with O(segment) live memory, and per-segment static tables are
    re-interned into one shared on-disk table (ids remapped per
    frame). Empty segments are skipped.
    """
    if segment_events is None:
        segment_events = DEFAULT_SEGMENT_EVENTS
    if isinstance(trace, list):
        trace = Trace.from_events(trace)
    if isinstance(trace, Trace):
        shared_static = trace.static
        segments = trace.segments(segment_events) if len(trace) else ()
    else:
        shared_static = None
        segments = trace

    static = shared_static if shared_static is not None else StaticTable()
    digest = hashlib.sha256()
    index: list[tuple[int, int, int, int]] = []
    total_events = 0
    last_table = shared_static
    last_map: list[int] | None = None
    with open(path, "wb") as handle:
        handle.write(_MAGIC_V3)
        offset = len(_MAGIC_V3)
        for segment in segments:
            if not isinstance(segment, Trace):
                segment = Trace.from_events(segment)
            start, stop = segment._bounds()
            events = stop - start
            if events == 0:
                continue
            table = segment.static
            if table is static:
                sid_bytes = _column_bytes(segment.sid, start, stop)
            else:
                if table is not last_table or last_map is None or (
                    len(last_map) != len(table)
                ):
                    last_map = [
                        static.intern(
                            table.ops[s], table.dsts[s], table.srcs[s]
                        )
                        for s in range(len(table))
                    ]
                    last_table = table
                if last_map == list(range(len(last_map))):
                    sid_bytes = _column_bytes(segment.sid, start, stop)
                else:
                    remapped = array(
                        "i",
                        map(
                            last_map.__getitem__,
                            segment.sid[start:stop],
                        ),
                    )
                    sid_bytes = _column_bytes(remapped, 0, events)
            payload = b"".join(
                (
                    _column_bytes(segment.pc, start, stop),
                    sid_bytes,
                    _column_bytes(segment.flags, start, stop),
                    _column_bytes(segment.next_pc, start, stop),
                    _column_bytes(segment.address, start, stop),
                )
            )
            frame = zlib.compress(payload, 6)
            crc = zlib.crc32(frame)
            handle.write(frame)
            index.append((offset, events, len(frame), crc))
            digest.update(struct.pack("<I", crc))
            offset += len(frame)
            total_events += events
        static_blob = zlib.compress(bytes(_static_payload(static)), 6)
        digest.update(struct.pack("<I", zlib.crc32(static_blob)))
        static_offset = offset
        handle.write(static_blob)
        offset += len(static_blob)
        index_offset = offset
        for entry in index:
            handle.write(_INDEX_V3.pack(*entry))
        handle.write(
            _FOOTER_V3.pack(
                total_events,
                index_offset,
                static_offset,
                len(static_blob),
                len(static),
                len(index),
                digest.digest(),
                _END_V3,
            )
        )


class SegmentedTraceReader:
    """Validating v3 reader: per-segment loading with O(segment) memory.

    Parses the footer, index and static table once (the content digest
    is verified up front from the indexed per-segment CRCs alone, no
    frame reads needed), then inflates one frame at a time on demand.
    Each yielded segment is a read-only :class:`Trace` sharing the one
    decoded static table, so consumers like
    :meth:`~repro.uarch.core.Core.simulate_stream` reuse their packed
    meta rows across segments.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = open(path, "rb")
        try:
            self._parse()
        except BaseException:
            self._handle.close()
            raise

    def _parse(self) -> None:
        handle = self._handle
        head = handle.read(len(_MAGIC_V3))
        if head != _MAGIC_V3:
            raise InterpreterError(f"{self.path}: not a v3 trace file")
        handle.seek(0, 2)
        size = handle.tell()
        if size < len(_MAGIC_V3) + _FOOTER_V3.size:
            raise InterpreterError(f"{self.path}: truncated v3 trace")
        handle.seek(size - _FOOTER_V3.size)
        (
            self.events, index_offset, static_offset, static_len,
            self._statics, n_segments, digest_bytes, end,
        ) = _FOOTER_V3.unpack(handle.read(_FOOTER_V3.size))
        if end != _END_V3:
            raise InterpreterError(f"{self.path}: corrupt v3 footer")
        if (
            index_offset + n_segments * _INDEX_V3.size
            != size - _FOOTER_V3.size
            or static_offset + static_len != index_offset
            or static_offset < len(_MAGIC_V3)
        ):
            raise InterpreterError(f"{self.path}: corrupt v3 layout")
        handle.seek(index_offset)
        index_blob = handle.read(n_segments * _INDEX_V3.size)
        self._index = [
            _INDEX_V3.unpack_from(index_blob, k * _INDEX_V3.size)
            for k in range(n_segments)
        ]
        digest = hashlib.sha256()
        expected_offset = len(_MAGIC_V3)
        events_seen = 0
        for offset, events, comp_len, crc in self._index:
            if (
                offset != expected_offset
                or events == 0
                or offset + comp_len > static_offset
            ):
                raise InterpreterError(
                    f"{self.path}: corrupt v3 index entry"
                )
            digest.update(struct.pack("<I", crc))
            expected_offset = offset + comp_len
            events_seen += events
        if expected_offset != static_offset:
            raise InterpreterError(
                f"{self.path}: trailing bytes in v3 trace"
            )
        if events_seen != self.events:
            raise InterpreterError(
                f"{self.path}: v3 footer promised {self.events} "
                f"events, found {events_seen}"
            )
        handle.seek(static_offset)
        static_blob = handle.read(static_len)
        digest.update(struct.pack("<I", zlib.crc32(static_blob)))
        if digest.digest() != digest_bytes:
            raise InterpreterError(
                f"{self.path}: v3 content digest mismatch"
            )
        self.static = _parse_statics(
            _inflate(static_blob, self.path, "v3 static table"),
            self._statics, self.path,
        )
        if self.events and self._statics == 0:
            raise InterpreterError(
                f"{self.path}: v3 trace has no static table"
            )

    @property
    def segment_count(self) -> int:
        return len(self._index)

    def _segment(self, offset, events, comp_len, crc) -> Trace:
        """Read, check and decode one indexed frame."""
        self._handle.seek(offset)
        frame = self._handle.read(comp_len)
        if len(frame) != comp_len or zlib.crc32(frame) != crc:
            raise InterpreterError(
                f"{self.path}: v3 segment CRC mismatch"
            )
        payload = _inflate(frame, self.path, "v3 segment")
        view = Trace.__new__(Trace)
        view.static = self.static
        columns = []
        offset = 0
        for typecode in _COLUMN_TYPES:
            column, offset = _read_column(
                payload, offset, typecode, events, self.path
            )
            columns.append(column)
        if offset != len(payload):
            raise InterpreterError(
                f"{self.path}: trailing bytes in v3 segment"
            )
        view.pc, view.sid, view.flags, view.next_pc, view.address = columns
        if not _ids_below(view.sid, self._statics):
            raise InterpreterError(
                f"{self.path}: v3 static id out of range"
            )
        view._start = 0
        view._stop = events
        return view

    def segments(self):
        """Yield one read-only :class:`Trace` per stored segment."""
        for entry in self._index:
            yield self._segment(*entry)

    def __iter__(self):
        return self.segments()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "SegmentedTraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_trace_segments(path: str | Path):
    """Iterate a stored trace segment by segment (single pass).

    One frame is resident at a time, and the backing file handle
    closes when the iterator is exhausted or dropped.
    """
    reader = SegmentedTraceReader(path)

    def _lazy():
        try:
            yield from reader.segments()
        finally:
            reader.close()

    return _lazy()


def load_trace_columnar(path: str | Path) -> Trace:
    """Read a whole stored trace into one columnar :class:`Trace`.

    The frames are decoded by the same validating reader as
    :func:`open_trace_segments` and concatenated into one root trace
    that shares the reader's static table.
    """
    trace = Trace()
    with SegmentedTraceReader(path) as reader:
        trace.static = reader.static
        # Through ``_segment``, not the public ``segments`` iterator:
        # perfbench counts that iterator's events as lazy decodes, so
        # going through it would count this whole decode twice.
        for entry in reader._index:
            segment = reader._segment(*entry)
            trace.pc.extend(segment.pc)
            trace.sid.extend(segment.sid)
            trace.flags.extend(segment.flags)
            trace.next_pc.extend(segment.next_pc)
            trace.address.extend(segment.address)
    return trace
