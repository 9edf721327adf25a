"""Trace serialisation.

Dynamic traces are expensive to regenerate (interpreting a kernel run)
but cheap to re-simulate under many core configurations, so persisting
them pays off for design-space sweeps. Two formats coexist:

**v1 (text)** — a header line, then one record per event::

    pc op taken next_pc address dst src1,src2,...

with ``-`` for absent fields. Verbose but greppable; kept for
compatibility and for ``repro trace`` output.

**v2 (binary, columnar)** — mirrors :class:`~repro.isa.trace.Trace`
on disk: a versioned magic and event/static counts, then one
zlib-deflated payload holding the interned static table (opcode,
destination, sources — unit/latency/occupancy/flags are re-derived from
the opcode on load, exactly as the v1 loader does) followed by the five
event columns as contiguous little-endian arrays. Column data is
extremely regular (mostly-sequential pcs, tiny sid alphabet), so the
deflated form is typically 5-10x smaller than v1 text, and loading is
one ``decompress`` plus five ``array.frombytes`` — no per-event Python
parsing.

**v3 (binary, segmented)** — the streaming generation of v2: the same
columnar encoding, but the event columns are cut into bounded-size
**segments**, each deflated into its own frame, followed by one
deflated static-table blob, an index (per-segment file offset, event
count, compressed length and CRC-32) and a fixed-size footer carrying
the totals plus a SHA-256 content digest folded over every per-segment
CRC. Readers can therefore either materialise the whole trace
(:func:`load_trace`) or iterate segments lazily with O(segment) live
memory (:class:`SegmentedTraceReader` / :func:`open_trace_segments`)
— seek to a frame, inflate it, simulate it, drop it.

:func:`load_trace` sniffs the magic and accepts any format; the
engine's persistent cache writes v3 only (see
:data:`TRACE_FORMAT_VERSION`, which is folded into the cache digest).
Every structural problem — wrong magic, truncation, trailing garbage,
out-of-range ids, CRC or digest mismatch — raises
:class:`~repro.errors.InterpreterError`, so callers (the engine cache)
can evict instead of crashing.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import zlib
from array import array
from pathlib import Path

from repro.errors import InterpreterError
from repro.isa.instructions import (
    OP_LATENCY,
    OP_LIST,
    OP_OCCUPANCY,
    OP_UNIT,
    Op,
)
from repro.isa.trace import Trace, TraceEvent

_MAGIC = "repro-trace v1"
_MAGIC_V2 = b"repro-trace v2\x00"
_HEADER_V2 = struct.Struct("<QI")

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

#: Default number of events per v3 segment frame (~1.8 MiB of raw
#: column data). The engine's streaming layer overrides it via
#: ``REPRO_SEGMENT_EVENTS``.
DEFAULT_SEGMENT_EVENTS = 65536

#: On-disk trace format the engine cache writes. Part of the cache
#: digest: bumping it invalidates every persisted trace wholesale.
TRACE_FORMAT_VERSION = 3

_BRANCH_OPS = {Op.B, Op.BC}
_LOAD_OPS = {Op.LD, Op.LDX}
_STORE_OPS = {Op.ST, Op.STX}


def _restore_event(
    pc: int, op: Op, taken: bool, next_pc: int,
    address: int | None, dst: int | None, srcs: tuple[int, ...],
) -> TraceEvent:
    """Rebuild a TraceEvent without an Instruction object."""
    event = TraceEvent.__new__(TraceEvent)
    event.pc = pc
    event.op = op
    event.unit = OP_UNIT[op]
    event.latency = OP_LATENCY.get(op, 1)
    event.occupancy = OP_OCCUPANCY.get(op, 1)
    event.dst = dst
    event.srcs = srcs
    event.is_branch = op in _BRANCH_OPS
    event.is_conditional = op is Op.BC
    event.taken = taken
    event.next_pc = next_pc
    event.is_load = op in _LOAD_OPS
    event.is_store = op in _STORE_OPS
    event.address = address
    return event


def save_trace(path: str | Path, events) -> None:
    """Write ``events`` (either trace form) to ``path`` as v1 text."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{_MAGIC} {len(events)}\n")
        for event in events:
            address = "-" if event.address is None else str(event.address)
            dst = "-" if event.dst is None else str(event.dst)
            srcs = ",".join(map(str, event.srcs)) if event.srcs else "-"
            handle.write(
                f"{event.pc} {event.op.value} {int(event.taken)} "
                f"{event.next_pc} {address} {dst} {srcs}\n"
            )


def _load_trace_v1(path: str | Path) -> list[TraceEvent]:
    """Read a v1 text trace into object form."""
    with open(path, encoding="ascii") as handle:
        header = handle.readline().rstrip("\n")
        parts = header.rsplit(" ", 1)
        if len(parts) != 2 or parts[0] != _MAGIC:
            raise InterpreterError(f"{path}: not a repro trace file")
        try:
            expected = int(parts[1])
        except ValueError:
            raise InterpreterError(f"{path}: bad trace header") from None
        events: list[TraceEvent] = []
        for line_no, line in enumerate(handle, start=2):
            fields = line.split()
            if len(fields) != 7:
                raise InterpreterError(
                    f"{path}:{line_no}: malformed record"
                )
            pc_s, op_s, taken_s, next_s, address_s, dst_s, srcs_s = fields
            try:
                op = Op(op_s)
            except ValueError:
                raise InterpreterError(
                    f"{path}:{line_no}: unknown opcode {op_s!r}"
                ) from None
            events.append(
                _restore_event(
                    pc=int(pc_s),
                    op=op,
                    taken=taken_s == "1",
                    next_pc=int(next_s),
                    address=None if address_s == "-" else int(address_s),
                    dst=None if dst_s == "-" else int(dst_s),
                    srcs=(
                        ()
                        if srcs_s == "-"
                        else tuple(int(s) for s in srcs_s.split(","))
                    ),
                )
            )
    if len(events) != expected:
        raise InterpreterError(
            f"{path}: header promised {expected} events, found "
            f"{len(events)}"
        )
    return events


# -- v2 binary ---------------------------------------------------------------


def _column_bytes(column: array, start: int, stop: int) -> bytes:
    """Little-endian bytes of ``column[start:stop]``."""
    chunk = column[start:stop]
    if sys.byteorder == "big":
        chunk.byteswap()
    return chunk.tobytes()


def _static_payload(static) -> bytearray:
    """Serialised static-table records (shared by v2 and v3)."""
    payload = bytearray()
    for sid in range(len(static)):
        srcs = static.srcs[sid]
        payload.append(static.ops[sid])
        payload.append(static.dsts[sid] & 0xFF)
        payload.append(len(srcs))
        payload.extend(srcs)
    return payload


def save_trace_v2(path: str | Path, trace) -> None:
    """Write ``trace`` (either form) to ``path`` as v2 binary."""
    if not isinstance(trace, Trace):
        trace = Trace.from_events(trace)
    start, stop = trace._bounds()
    static = trace.static
    payload = _static_payload(static)
    payload += _column_bytes(trace.pc, start, stop)
    payload += _column_bytes(trace.sid, start, stop)
    payload += _column_bytes(trace.flags, start, stop)
    payload += _column_bytes(trace.next_pc, start, stop)
    payload += _column_bytes(trace.address, start, stop)
    with open(path, "wb") as handle:
        handle.write(_MAGIC_V2)
        handle.write(_HEADER_V2.pack(stop - start, len(static)))
        handle.write(zlib.compress(bytes(payload), 6))


def _read_column(
    data: bytes, offset: int, typecode: str, count: int, path,
    label: str = "v2",
) -> tuple[array, int]:
    column = array(typecode)
    size = column.itemsize * count
    if offset + size > len(data):
        raise InterpreterError(f"{path}: truncated {label} trace")
    column.frombytes(data[offset : offset + size])
    if sys.byteorder == "big":
        column.byteswap()
    return column, offset + size


def _parse_statics(
    data: bytes, offset: int, statics: int, path, static,
    label: str = "v2",
) -> int:
    """Intern ``statics`` serialised records into ``static``."""
    for _ in range(statics):
        if offset + 3 > len(data):
            raise InterpreterError(
                f"{path}: truncated {label} static table"
            )
        op_index = data[offset]
        dst = data[offset + 1]
        n_srcs = data[offset + 2]
        offset += 3
        if op_index >= len(OP_LIST) or n_srcs > 8:
            raise InterpreterError(
                f"{path}: corrupt {label} static record"
            )
        if offset + n_srcs > len(data):
            raise InterpreterError(
                f"{path}: truncated {label} static table"
            )
        srcs = tuple(data[offset : offset + n_srcs])
        offset += n_srcs
        if dst >= 0x80:
            dst -= 0x100
        sid = static.intern(op_index, dst, srcs)
        if sid != len(static) - 1:
            raise InterpreterError(
                f"{path}: duplicate {label} static record"
            )
    return offset


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


def _load_trace_v2(path: str | Path, data: bytes) -> Trace:
    """Decode a v2 binary trace (``data`` is the whole file)."""
    offset = len(_MAGIC_V2)
    if len(data) < offset + _HEADER_V2.size:
        raise InterpreterError(f"{path}: truncated v2 trace header")
    events, statics = _HEADER_V2.unpack_from(data, offset)
    offset += _HEADER_V2.size
    decompressor = zlib.decompressobj()
    try:
        payload = decompressor.decompress(data[offset:])
        payload += decompressor.flush()
    except zlib.error as error:
        raise InterpreterError(
            f"{path}: corrupt v2 trace payload ({error})"
        ) from None
    if not decompressor.eof:
        raise InterpreterError(f"{path}: truncated v2 trace payload")
    if decompressor.unused_data:
        raise InterpreterError(f"{path}: trailing bytes in v2 trace")
    data = payload
    offset = 0

    trace = Trace()
    static = trace.static
    offset = _parse_statics(data, offset, statics, path, static)

    trace.pc, offset = _read_column(data, offset, "q", events, path)
    trace.sid, offset = _read_column(data, offset, "i", events, path)
    trace.flags, offset = _read_column(data, offset, "B", events, path)
    trace.next_pc, offset = _read_column(data, offset, "q", events, path)
    trace.address, offset = _read_column(data, offset, "q", events, path)
    if offset != len(data):
        raise InterpreterError(f"{path}: trailing bytes in v2 trace")
    if events and statics == 0:
        raise InterpreterError(f"{path}: v2 trace has no static table")
    if events and max(trace.sid) >= statics:
        raise InterpreterError(f"{path}: v2 static id out of range")
    return trace


# -- v3 segmented binary -----------------------------------------------------


def _read_event_columns(
    payload: bytes, events: int, path, label: str
) -> tuple[array, array, array, array, array]:
    """The five event columns of one deflated payload, strictly."""
    offset = 0
    pc, offset = _read_column(payload, offset, "q", events, path, label)
    sid, offset = _read_column(payload, offset, "i", events, path, label)
    flags, offset = _read_column(payload, offset, "B", events, path, label)
    next_pc, offset = _read_column(
        payload, offset, "q", events, path, label
    )
    address, offset = _read_column(
        payload, offset, "q", events, path, label
    )
    if offset != len(payload):
        raise InterpreterError(
            f"{path}: trailing bytes in {label} segment"
        )
    return pc, sid, flags, next_pc, address


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

    from repro.isa.trace import StaticTable

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


def _parse_v3_layout(data_len: int, footer: bytes, path):
    """Validate a v3 footer; returns its unpacked fields."""
    (
        total_events,
        index_offset,
        static_offset,
        static_len,
        statics,
        n_segments,
        digest_bytes,
        end,
    ) = _FOOTER_V3.unpack(footer)
    if end != _END_V3:
        raise InterpreterError(f"{path}: corrupt v3 footer")
    index_end = data_len - _FOOTER_V3.size
    if (
        index_offset + n_segments * _INDEX_V3.size != index_end
        or static_offset + static_len != index_offset
        or static_offset < len(_MAGIC_V3)
    ):
        raise InterpreterError(f"{path}: corrupt v3 layout")
    return (
        total_events, index_offset, static_offset, static_len,
        statics, n_segments, digest_bytes,
    )


def _load_trace_v3(path: str | Path, data: bytes) -> Trace:
    """Decode a whole v3 trace eagerly (``data`` is the file)."""
    if len(data) < len(_MAGIC_V3) + _FOOTER_V3.size:
        raise InterpreterError(f"{path}: truncated v3 trace")
    (
        total_events, index_offset, static_offset, static_len,
        statics, n_segments, digest_bytes,
    ) = _parse_v3_layout(
        len(data), data[len(data) - _FOOTER_V3.size :], path
    )
    digest = hashlib.sha256()
    trace = Trace()
    expected_offset = len(_MAGIC_V3)
    events_seen = 0
    for k in range(n_segments):
        offset, events, comp_len, crc = _INDEX_V3.unpack_from(
            data, index_offset + k * _INDEX_V3.size
        )
        if (
            offset != expected_offset
            or events == 0
            or offset + comp_len > static_offset
        ):
            raise InterpreterError(f"{path}: corrupt v3 index entry")
        frame = data[offset : offset + comp_len]
        if zlib.crc32(frame) != crc:
            raise InterpreterError(f"{path}: v3 segment CRC mismatch")
        digest.update(struct.pack("<I", crc))
        payload = _inflate(frame, path, "v3 segment")
        pc, sid, flags, next_pc, address = _read_event_columns(
            payload, events, path, "v3"
        )
        trace.pc.extend(pc)
        trace.sid.extend(sid)
        trace.flags.extend(flags)
        trace.next_pc.extend(next_pc)
        trace.address.extend(address)
        expected_offset = offset + comp_len
        events_seen += events
    if expected_offset != static_offset:
        raise InterpreterError(f"{path}: trailing bytes in v3 trace")
    if events_seen != total_events:
        raise InterpreterError(
            f"{path}: v3 footer promised {total_events} events, found "
            f"{events_seen}"
        )
    static_blob = data[static_offset : static_offset + static_len]
    digest.update(struct.pack("<I", zlib.crc32(static_blob)))
    if digest.digest() != digest_bytes:
        raise InterpreterError(f"{path}: v3 content digest mismatch")
    payload = _inflate(static_blob, path, "v3 static table")
    offset = _parse_statics(payload, 0, statics, path, trace.static, "v3")
    if offset != len(payload):
        raise InterpreterError(
            f"{path}: trailing bytes in v3 static table"
        )
    if total_events and statics == 0:
        raise InterpreterError(f"{path}: v3 trace has no static table")
    if total_events and max(trace.sid) >= statics:
        raise InterpreterError(f"{path}: v3 static id out of range")
    return trace


class SegmentedTraceReader:
    """Lazy v3 reader: per-segment loading with O(segment) memory.

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
            self._statics, n_segments, digest_bytes,
        ) = _parse_v3_layout(
            size, handle.read(_FOOTER_V3.size), self.path
        )
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
        from repro.isa.trace import StaticTable

        self.static = StaticTable()
        payload = _inflate(static_blob, self.path, "v3 static table")
        offset = _parse_statics(
            payload, 0, self._statics, self.path, self.static, "v3"
        )
        if offset != len(payload):
            raise InterpreterError(
                f"{self.path}: trailing bytes in v3 static table"
            )
        if self.events and self._statics == 0:
            raise InterpreterError(
                f"{self.path}: v3 trace has no static table"
            )

    @property
    def segment_count(self) -> int:
        return len(self._index)

    def _segment(self, offset, events, comp_len, crc) -> Trace:
        self._handle.seek(offset)
        frame = self._handle.read(comp_len)
        if len(frame) != comp_len or zlib.crc32(frame) != crc:
            raise InterpreterError(
                f"{self.path}: v3 segment CRC mismatch"
            )
        payload = _inflate(frame, self.path, "v3 segment")
        pc, sid, flags, next_pc, address = _read_event_columns(
            payload, events, self.path, "v3"
        )
        if events and max(sid) >= self._statics:
            raise InterpreterError(
                f"{self.path}: v3 static id out of range"
            )
        view = Trace.__new__(Trace)
        view.static = self.static
        view.pc = pc
        view.sid = sid
        view.flags = flags
        view.next_pc = next_pc
        view.address = address
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


def open_trace_segments(
    path: str | Path, segment_events: int | None = None
):
    """Iterate a stored trace segment by segment (single pass).

    v3 files stream lazily — one frame is resident at a time, and the
    backing file handle closes when the iterator is exhausted or
    dropped. v1/v2 files have no segment index, so they are
    materialised once and re-sliced into ``segment_events``-sized
    zero-copy views (compat path; the engine cache writes only v3, so
    this stays cold).
    """
    if trace_format(path) == 3:
        reader = SegmentedTraceReader(path)

        def _lazy():
            try:
                yield from reader.segments()
            finally:
                reader.close()

        return _lazy()
    trace = load_trace_columnar(path)
    if segment_events is None:
        segment_events = DEFAULT_SEGMENT_EVENTS
    return trace.segments(segment_events)


# -- format-agnostic loading -------------------------------------------------


def trace_format(path: str | Path) -> int:
    """On-disk format version of ``path`` (1, 2 or 3)."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(_MAGIC_V3))
    except OSError as error:
        raise InterpreterError(f"{path}: {error}") from None
    if head == _MAGIC_V3:
        return 3
    return 2 if head == _MAGIC_V2 else 1


def load_trace(path: str | Path) -> Trace | list[TraceEvent]:
    """Read a trace in any format.

    v2/v3 files load as a columnar :class:`Trace`; v1 text loads as
    the historical ``list[TraceEvent]`` (so v1-era callers see the
    exact type they stored). Use :func:`load_trace_columnar` for a
    uniform columnar result, or :func:`open_trace_segments` to stream
    a v3 file without materialising it.
    """
    with open(path, "rb") as handle:
        head = handle.read(len(_MAGIC_V3))
    if head == _MAGIC_V3:
        return _load_trace_v3(path, Path(path).read_bytes())
    if head == _MAGIC_V2:
        return _load_trace_v2(path, Path(path).read_bytes())
    return _load_trace_v1(path)


def load_trace_columnar(path: str | Path) -> Trace:
    """Read either format, always returning a columnar :class:`Trace`."""
    loaded = load_trace(path)
    if isinstance(loaded, Trace):
        return loaded
    return Trace.from_events(loaded)
