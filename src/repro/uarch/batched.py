"""Batched multi-config simulation: one trace pass drives N design points.

Design-space sweeps re-walk the same committed-instruction trace once
per :class:`~repro.uarch.config.CoreConfig`, yet most of each walk is
identical across the points of a sweep. The model factorizes cleanly:

* **Frontend state** — branch-direction predictor, BTAC and L1D —
  evolves from the *trace alone*. ``predictor.update(pc, taken)``
  consumes the traced outcome, the BTAC trains on traced next-PCs, and
  the cache is indexed by traced addresses. None of it reads a timing
  parameter, so every config sharing a (predictor spec, BTAC geometry,
  cache geometry) triple sees byte-identical predictor/BTAC/cache
  behaviour.
* **Timing state** — fetch/dispatch cycles, the register scoreboard,
  per-unit issue bandwidth, the in-flight window and the commit stream
  — depends on the per-config machine shape, but consumes the frontend
  only through a tiny per-event summary: which branch action fired and
  whether a load hit.

``simulate_batched`` exploits this: design points are partitioned into
*frontend groups*; each group runs **one** shared frontend pass that
emits a per-event action byte, then replays the cheap timing recurrence
once per config (a 34-slot register scoreboard, six stall counters,
per-unit issue-usage lanes). Both halves run in one C translation unit,
compiled once per host (content-addressed by source hash) and driven
through :mod:`ctypes`:

* the **frontend walk** (inlined gshare, LRU L1D, score-replaced BTAC)
  carries its state in numpy arrays between calls, so a segmented
  stream walks exactly like one monolithic trace;
* the **timing replay** reads the int32 per-event static id plus one
  packed row per static instruction, and the uint8 action stream.

The configs of a trace are independent, so one replay call takes every
(frontend group, config) item at once and hands the items out through a
shared cursor to ``min(items, CPUs)`` threads, the calling thread among
them (:mod:`ctypes` releases the GIL around the kernel). CPUs are those
of the process's affinity mask; a pool worker takes its share
(:func:`set_replay_threads`). A one-item call starts no thread, and no
thread outlives the call. Each thread replays its items one at a time,
from fresh state, in its own scratch, sized by the configs and never
by the trace: a ``window``-slot ring for the commit-window tail and
three int32 usage lanes, each a ring of ``_RING_CELLS`` cycles. No op
issues before the dispatch cycle of its event, which never decreases,
so lane cells below it are dead and are recycled as it advances. An
item whose ops book further ahead of dispatch than the ring holds
retries with a ring four times larger, then replays in Python; the
other items are unaffected.

That is where the speedup comes from: the frontend costs a few
nanoseconds per event instead of a Python-level walk, and the replay
streams five bytes per event and config instead of sixty-four. A
straight numpy formulation pays one interpreter dispatch per event *per
config* and measures slower than the scalar loop at realistic batch
sizes.

The Python frontend walk and the Python replay stay as exact
equivalents, used only where the kernel cannot give the identical
answer or cannot run: predictor kinds other than gshare (the walk; the
replay stays native), a segment with an event whose byte address would
overflow int64 (the walk moves to Python, state and all, from that
segment on), geometry that does not fit int64, a config with a timing
parameter beyond what an int32 lane counts or whose lanes still
overflow (the replay of that config), ``REPRO_NATIVE=off``, and hosts
with no C compiler (both halves).

Every frontend group, one config or many, runs the shared pass and
the replay; ``simulate_trace`` and the engine's point-at-a-time path
are one-config groups. Only traces the packed encoding cannot
represent — object-form event lists, static tables with more than
three sources — fall back to the scalar ``Core.simulate`` reference,
for every config. Results are byte-identical either way — the
golden-equality suite asserts it across predictor kinds, FXU counts,
BTAC and cache geometries and group sizes, with and without the
native kernel.

The per-event action byte (uint8):

====  =======================================================
bits  meaning
====  =======================================================
0-2   branch action: 0 none, 1 mispredict flush, 2 taken
      bubble, 3 group end (not-taken or correct BTAC target),
      4 wrong BTAC target
3     load hit (latency becomes ``hit_latency``)
4     load miss (latency becomes ``hit+miss``; limiter=cache)
====  =======================================================
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import secrets
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import SimulationError
from repro.guards import guards_enabled
from repro.isa.instructions import UNIT_INDEX, Unit
from repro.isa.trace import F_BRANCH, F_COND, F_LOAD, F_TAKEN, Trace
from repro.uarch.branch_predictor import GsharePredictor
from repro.uarch.btac import Btac, BtacEntry, BtacStats
from repro.uarch.cache import WORD_BYTES, CacheStats, L1DCache
from repro.uarch.config import CoreConfig
from repro.uarch.guards import check_sim_result
from repro.uarch.result import _LIMITERS, IntervalRecord, SimResult

_FXU = UNIT_INDEX[Unit.FXU]
_NONE = UNIT_INDEX[Unit.NONE]

#: Branch-action codes (bits 0-2 of the per-event action byte).
_A_MISPREDICT = 1
_A_TAKEN_BUBBLE = 2
_A_GROUP_END = 3
_A_WRONG_TARGET = 4
#: Load-outcome bits.
_A_LOAD_HIT = 8
_A_LOAD_MISS = 16

#: int64 slots per config in the packed replay parameter block.
_PARAM_STRIDE = 12
#: int64 slots per packed static row: s1, s2, s3, unit, occupancy,
#: latency, dst, padding.
_ROW = 8

#: Frontend counters a :class:`_Frontend` carries as fields.
_COUNTERS = (
    "branches", "conditional_branches", "taken_branches",
    "direction_mispredictions", "target_mispredictions", "taken_bubbles",
    "loads", "stores", "load_misses", "cache_accesses", "cache_misses",
)
#: BTAC counters, in :class:`~repro.uarch.btac.BtacStats` field order.
_BTAC_COUNTERS = (
    "btac_lookups", "btac_hits", "btac_predictions", "btac_correct",
    "btac_incorrect", "btac_allocations",
)
#: The native walk's carried state slots, in the order of the kernel's
#: ``S_*`` enum: the block cursor, then every counter.
_FRONTEND_SLOTS = (
    ("history", "block_start", "started", "base", "btac_used")
    + _COUNTERS + _BTAC_COUNTERS
)
_BASE_SLOT = _FRONTEND_SLOTS.index("base")


def frontend_key(config: CoreConfig) -> tuple:
    """Group key: configs with equal keys share one frontend pass.

    Only state-*shaping* parameters participate. Timing-side knobs —
    BTAC ``wrong_target_penalty``, cache ``hit_latency`` and
    ``miss_penalty`` — are excluded on purpose: the frontend emits
    hit/miss and branch-action facts, not resolved latencies, so a
    latency sweep still shares a single pass.
    """
    btac = config.btac
    btac_key = (
        None
        if btac is None
        else (btac.entries, btac.score_bits, btac.score_threshold,
              btac.initial_score)
    )
    cache = config.cache
    return (
        config.predictor,
        btac_key,
        (cache.size_bytes, cache.line_bytes, cache.ways),
    )


@dataclass
class BatchOutcome:
    """What ``simulate_batched`` did, point by point."""

    results: list[SimResult]
    #: Per config: True when the shared frontend pass and the replay
    #: produced the result, False when the trace fell back to scalar
    #: ``Core.simulate`` (an object-form event list, or a static table
    #: the packed encoding cannot represent).
    batched: list[bool]
    #: Whether the native replay kernel ran (vs the Python replay).
    native: bool
    #: Whether a frontend pass ran in the native kernel (vs Python).
    native_frontend: bool = False

    @property
    def vectorized(self) -> int:
        return sum(self.batched)

    @property
    def fallback(self) -> int:
        return len(self.batched) - self.vectorized


# --------------------------------------------------------------------
# Static-table meta, shared by every frontend group of one trace.
# --------------------------------------------------------------------


def columnar_supported(static) -> bool:
    """Whether the packed per-event meta encoding covers ``static``.

    The replay (and the scalar core's columnar loop, built on the same
    encoding) pads every source tuple to exactly three slots; the
    mini-ISA never reads more than three GPRs, but a hand-built static
    table could, and such tables must take the object-path golden
    reference instead.
    """
    return all(len(srcs) <= 3 for srcs in static.srcs)


@dataclass
class _StaticMeta:
    """The replay's view of a trace: static ids plus packed rows."""

    sid: np.ndarray  # int32 (C int), one static id per event
    rows: np.ndarray  # (statics, _ROW) int64
    fxu_ops: int
    n: int


def _static_meta(trace: Trace) -> _StaticMeta | None:
    """Pack the trace's static table, or None to fall back."""
    static = trace.static
    if not columnar_supported(static):
        return None
    start, stop = trace._bounds()
    # Same padding scheme as the columnar loop's meta tuples: sources
    # pad to three with the dummy always-zero slot 32, "no destination"
    # becomes the dummy sink slot 33.
    rows = np.array(
        [
            (*(srcs + (32, 32, 32))[:3], unit, occupancy, latency,
             dst if dst >= 0 else 33, 0)
            for srcs, unit, occupancy, latency, dst in zip(
                static.srcs, static.units, static.occupancies,
                static.latencies, static.dsts,
            )
        ],
        dtype=np.int64,
    ).reshape(-1, _ROW)
    sid = np.frombuffer(trace.sid, dtype=np.intc)[start:stop]
    fxu = rows[:, 3] == _FXU
    return _StaticMeta(
        sid=sid,
        rows=rows,
        fxu_ops=int(np.count_nonzero(fxu[sid])),
        n=int(stop - start),
    )


def _concat_meta(metas: list[_StaticMeta]) -> _StaticMeta:
    """Join per-segment metas into one replay-ready block.

    Segments may bring different static tables; their rows are merged
    into one table and each segment's ids remapped into it (a no-op,
    skipped, for segments sharing the table built so far).
    """
    if len(metas) == 1:
        return metas[0]
    table: dict[tuple, int] = {}
    sids = []
    for meta in metas:
        remap = np.array(
            [table.setdefault(tuple(row), len(table))
             for row in meta.rows.tolist()],
            dtype=np.intc,
        )
        if np.array_equal(remap, np.arange(len(remap))):
            sids.append(meta.sid)
        else:
            sids.append(remap[meta.sid])
    return _StaticMeta(
        sid=np.concatenate(sids),
        rows=np.array(list(table), dtype=np.int64).reshape(-1, _ROW),
        fxu_ops=sum(m.fxu_ops for m in metas),
        n=sum(m.n for m in metas),
    )


# --------------------------------------------------------------------
# Shared frontend pass: one walk of the flagged events per group.
# --------------------------------------------------------------------


@dataclass
class _Frontend:
    """Everything one frontend pass produces for a config group."""

    action: np.ndarray  # uint8, one entry per event
    branches: int
    conditional_branches: int
    taken_branches: int
    direction_mispredictions: int
    target_mispredictions: int
    taken_bubbles: int
    loads: int
    stores: int
    load_misses: int
    cache_accesses: int
    cache_misses: int
    #: (lookups, hits, predictions, correct, incorrect, allocations)
    btac: tuple[int, int, int, int, int, int] | None
    iv_branches: list[int]
    iv_mispredicts: list[int]
    native: bool


def _seal(
    counts: dict,
    actions: list[np.ndarray],
    has_btac: bool,
    intervals: list,
    n_intervals: int,
    native: bool,
) -> _Frontend:
    """Seal a finished walk into the replay's :class:`_Frontend` form.

    ``n_intervals`` is computed by the caller once the total event
    count is known; lazily-grown interval tallies are truncated (a
    trailing partial interval is dropped, as monolithically) or
    zero-padded (intervals with no branches were never touched).
    """
    pad = [0] * n_intervals
    return _Frontend(
        action=actions[0] if len(actions) == 1 else np.concatenate(actions),
        **{name: counts[name] for name in _COUNTERS},
        btac=(
            tuple(counts[name] for name in _BTAC_COUNTERS)
            if has_btac else None
        ),
        iv_branches=(list(intervals[0]) + pad)[:n_intervals],
        iv_mispredicts=(list(intervals[1]) + pad)[:n_intervals],
        native=native,
    )


class _FrontendPass:
    """Carried-state frontend walk in Python: ``feed`` segments, then
    ``finish``.

    The reference form of the shared frontend pass, and the one that
    serves every predictor kind: predictor, BTAC, L1D, the fall-through
    block start and every counter persist across ``feed`` calls, so
    feeding a segmented trace produces the identical action stream and
    counts as one monolithic walk. Interval attribution uses *global*
    event positions (``self.base``), with the per-interval lists grown
    lazily because the total event count — and hence the interval
    count — is unknown until the stream ends.
    """

    def __init__(self, config: CoreConfig, segment: int) -> None:
        from repro.bpred.predictors import make_predictor

        self.segment = segment  # interval chunk; 0 = no intervals
        predictor = make_predictor(config.predictor)
        self.bp_update = None
        self.bp_table: list | int = 0
        self.bp_history = self.bp_hmask = self.bp_mask = 0
        if type(predictor) is GsharePredictor:
            self.bp_table = predictor._table
            self.bp_history = predictor._history
            self.bp_hmask = predictor._history_mask
            self.bp_mask = predictor._mask
        else:
            self.bp_update = predictor.update
        self.cache = L1DCache(config.cache)
        self.cache_accesses = self.cache_misses = 0
        self.btac = Btac(config.btac) if config.btac else None
        self.btac_lookups = self.btac_hits = self.btac_predictions = 0
        self.btac_correct = self.btac_incorrect = 0
        self.branches = self.conditional_branches = 0
        self.taken_branches = 0
        self.direction_mispredictions = self.target_mispredictions = 0
        self.taken_bubbles = self.loads = self.stores = 0
        self.load_misses = 0
        self.iv_branches: list[int] = []
        self.iv_mispredicts: list[int] = []
        self.block_start: int | None = None
        self.base = 0
        self.actions: list[np.ndarray] = []

    def feed(self, trace: Trace) -> None:
        """Walk one segment's flagged events, appending its actions."""
        start, stop = trace._bounds()
        if stop == start:
            return
        flags_np = np.frombuffer(trace.flags, dtype=np.uint8)[start:stop]
        idx = np.flatnonzero(flags_np)
        pc_np = np.frombuffer(trace.pc, dtype=np.int64)[start:stop]
        sub_flags = flags_np[idx].tolist()
        sub_pc = pc_np[idx].tolist()
        sub_next = (
            np.frombuffer(trace.next_pc, dtype=np.int64)[start:stop][idx]
        ).tolist()
        sub_addr = (
            np.frombuffer(trace.address, dtype=np.int64)[start:stop][idx]
        ).tolist()
        positions = idx.tolist()
        act_list = [0] * (stop - start)

        bp_update = self.bp_update
        bp_table = self.bp_table
        bp_history = self.bp_history
        bp_hmask = self.bp_hmask
        bp_mask = self.bp_mask

        cache = self.cache
        cache_sets = cache._sets
        cache_set_mask = cache._set_mask
        cache_line_bytes = cache._line_bytes
        cache_ways_n = cache._ways
        cache_accesses = self.cache_accesses
        cache_misses = self.cache_misses

        btac = self.btac
        if btac is not None:
            btac_slot_get = btac._slot_of.get
            btac_entries = btac._entries
            btac_threshold = btac.config.score_threshold
            btac_max_score = btac._max_score
            btac_alloc = btac.update
            btac_lookups = self.btac_lookups
            btac_hits = self.btac_hits
            btac_predictions = self.btac_predictions
            btac_correct = self.btac_correct
            btac_incorrect = self.btac_incorrect

        branches = self.branches
        conditional_branches = self.conditional_branches
        taken_branches = self.taken_branches
        direction_mispredictions = self.direction_mispredictions
        target_mispredictions = self.target_mispredictions
        taken_bubbles = self.taken_bubbles
        loads = self.loads
        stores = self.stores
        load_misses = self.load_misses
        iv_branches = self.iv_branches
        iv_mispredicts = self.iv_mispredicts
        segment = self.segment
        base = self.base

        block_start = self.block_start
        if block_start is None:
            block_start = int(pc_np[0])

        for pos in range(len(positions)):
            i = positions[pos]
            flags = sub_flags[pos]
            act = 0
            if flags & 24:  # F_LOAD | F_STORE
                line = (sub_addr[pos] * WORD_BYTES) // cache_line_bytes
                ways = cache_sets[line & cache_set_mask]
                cache_accesses += 1
                if flags & F_LOAD:
                    loads += 1
                    if line in ways:
                        if ways[-1] != line:
                            ways.remove(line)
                            ways.append(line)
                        act = _A_LOAD_HIT
                    else:
                        cache_misses += 1
                        ways.append(line)
                        if len(ways) > cache_ways_n:
                            del ways[0]
                        load_misses += 1
                        act = _A_LOAD_MISS
                else:
                    stores += 1
                    if line in ways:
                        if ways[-1] != line:
                            ways.remove(line)
                            ways.append(line)
                    else:
                        cache_misses += 1
                        ways.append(line)
                        if len(ways) > cache_ways_n:
                            del ways[0]
            if flags & F_BRANCH:
                branches += 1
                taken = (flags & F_TAKEN) != 0
                if taken:
                    taken_branches += 1
                mispredicted = False
                if flags & F_COND:
                    conditional_branches += 1
                    if bp_update is not None:
                        mispredicted = bp_update(sub_pc[pos], taken)
                    else:
                        index = (sub_pc[pos] ^ bp_history) & bp_mask
                        counter = bp_table[index]
                        if taken:
                            if counter < 3:
                                bp_table[index] = counter + 1
                            bp_history = ((bp_history << 1) | 1) & bp_hmask
                            mispredicted = counter < 2
                        else:
                            if counter > 0:
                                bp_table[index] = counter - 1
                            bp_history = (bp_history << 1) & bp_hmask
                            mispredicted = counter >= 2
                if mispredicted:
                    direction_mispredictions += 1
                    act |= _A_MISPREDICT
                elif taken:
                    next_pc = sub_next[pos]
                    if btac is not None:
                        btac_lookups += 1
                        slot = btac_slot_get(block_start)
                        predicted_nia = None
                        if slot is None:
                            entry = None
                        else:
                            entry = btac_entries[slot]
                            btac_hits += 1
                            if entry.score >= btac_threshold:
                                btac_predictions += 1
                                predicted_nia = entry.nia
                        if predicted_nia is None:
                            taken_bubbles += 1
                            act |= _A_TAKEN_BUBBLE
                        elif predicted_nia == next_pc:
                            btac_correct += 1
                            act |= _A_GROUP_END
                        else:
                            btac_incorrect += 1
                            target_mispredictions += 1
                            act |= _A_WRONG_TARGET
                        if entry is not None:
                            if entry.nia == next_pc:
                                if entry.score < btac_max_score:
                                    entry.score += 1
                            elif entry.score > 0:
                                entry.score = 0
                            else:
                                entry.nia = next_pc
                        else:
                            btac_alloc(block_start, next_pc)
                    else:
                        taken_bubbles += 1
                        act |= _A_TAKEN_BUBBLE
                else:
                    act |= _A_GROUP_END
                if taken or mispredicted:
                    block_start = sub_next[pos]
                if segment:
                    k = (base + i) // segment
                    while len(iv_branches) <= k:
                        iv_branches.append(0)
                        iv_mispredicts.append(0)
                    iv_branches[k] += 1
                    if mispredicted:
                        iv_mispredicts[k] += 1
            if act:
                act_list[i] = act

        self.actions.append(np.asarray(act_list, dtype=np.uint8))
        self.base = base + (stop - start)
        self.block_start = block_start
        self.bp_history = bp_history
        self.cache_accesses = cache_accesses
        self.cache_misses = cache_misses
        if btac is not None:
            self.btac_lookups = btac_lookups
            self.btac_hits = btac_hits
            self.btac_predictions = btac_predictions
            self.btac_correct = btac_correct
            self.btac_incorrect = btac_incorrect
        self.branches = branches
        self.conditional_branches = conditional_branches
        self.taken_branches = taken_branches
        self.direction_mispredictions = direction_mispredictions
        self.target_mispredictions = target_mispredictions
        self.taken_bubbles = taken_bubbles
        self.loads = loads
        self.stores = stores
        self.load_misses = load_misses

    def finish(self, n_intervals: int) -> _Frontend:
        """Seal the stream into the replay's :class:`_Frontend` form."""
        counts = {
            name: getattr(self, name)
            for name in _COUNTERS + _BTAC_COUNTERS[:-1]
        }
        counts["btac_allocations"] = (
            self.btac.stats.allocations if self.btac is not None else 0
        )
        return _seal(
            counts, self.actions, self.btac is not None,
            [self.iv_branches, self.iv_mispredicts], n_intervals,
            native=False,
        )


class _NativeFrontendPass:
    """The same carried-state walk, run by the native kernel.

    State lives in numpy arrays between ``feed`` calls: the gshare
    counters, the L1D lines of every set (least-recently-used first,
    with a per-set fill count), the BTAC ``(tag, nia, score)`` rows, and
    the block cursor and counters in ``state`` (see
    :data:`_FRONTEND_SLOTS`). The kernel refuses a segment holding an
    event whose byte address would overflow int64 before it touches
    any state; the walk then continues, from that segment on, in a
    :class:`_FrontendPass` carrying this pass's state exactly.
    """

    def __init__(
        self, lib, config: CoreConfig, segment: int, geometry: np.ndarray
    ) -> None:
        self.lib = lib
        self.config = config
        self.segment = segment  # interval chunk; 0 = no intervals
        self.geometry = geometry
        cache = config.cache
        self.table = np.ones(1 << config.predictor.table_bits, dtype=np.uint8)
        self.lines = np.zeros((cache.sets, cache.ways), dtype=np.int64)
        self.fill = np.zeros(cache.sets, dtype=np.int64)
        entries = config.btac.entries if config.btac else 0
        self.btac = np.zeros((entries, 3), dtype=np.int64)
        self.state = np.zeros(len(_FRONTEND_SLOTS), dtype=np.int64)
        #: Rows: branches, mispredicts per interval (grown on demand).
        self.intervals = np.zeros((2, 0), dtype=np.int64)
        self.actions: list[np.ndarray] = []
        self.python: _FrontendPass | None = None

    def feed(self, trace: Trace) -> None:
        """Walk one segment in the kernel, appending its actions."""
        if self.python is not None:
            self.python.feed(trace)
            return
        start, stop = trace._bounds()
        n = stop - start
        if n == 0:
            return
        flags = np.frombuffer(trace.flags, dtype=np.uint8)[start:stop]
        pc, next_pc, address = (
            np.frombuffer(column, dtype=np.int64)[start:stop]
            for column in (trace.pc, trace.next_pc, trace.address)
        )
        if self.segment:
            need = (int(self.state[_BASE_SLOT]) + n - 1) // self.segment + 1
            if need > self.intervals.shape[1]:
                grown = np.zeros(
                    (2, max(need, 2 * self.intervals.shape[1])),
                    dtype=np.int64,
                )
                grown[:, : self.intervals.shape[1]] = self.intervals
                self.intervals = grown
        action = np.zeros(n, dtype=np.uint8)
        refused = self.lib.repro_frontend_walk(
            n, _ptr(flags), _ptr(pc), _ptr(next_pc), _ptr(address),
            _ptr(self.geometry), _ptr(self.table), _ptr(self.lines),
            _ptr(self.fill), _ptr(self.btac), _ptr(self.state),
            _ptr(self.intervals), self.intervals.shape[1], _ptr(action),
        )
        if refused:
            self.python = self._to_python()
            self.python.feed(trace)
        else:
            self.actions.append(action)

    def _to_python(self) -> _FrontendPass:
        """A Python walk carrying this pass's state exactly."""
        walker = _FrontendPass(self.config, self.segment)
        slots = dict(zip(_FRONTEND_SLOTS, self.state.tolist()))
        walker.bp_table[:] = self.table.tolist()
        walker.bp_history = slots["history"]
        for ways, lines, fill in zip(
            walker.cache._sets, self.lines.tolist(), self.fill.tolist()
        ):
            ways.extend(lines[:fill])
        if walker.btac is not None:
            rows = self.btac[: slots["btac_used"]].tolist()
            for slot, (tag, nia, score) in enumerate(rows):
                walker.btac._entries.append(BtacEntry(tag, nia, score))
                walker.btac._slot_of[tag] = slot
            walker.btac.stats.allocations = slots["btac_allocations"]
        for name in _COUNTERS + _BTAC_COUNTERS[:-1]:
            setattr(walker, name, slots[name])
        walker.block_start = slots["block_start"] if slots["started"] else None
        walker.base = slots["base"]
        walker.iv_branches, walker.iv_mispredicts = self.intervals.tolist()
        walker.actions = self.actions
        return walker

    def finish(self, n_intervals: int) -> _Frontend:
        """Seal the stream into the replay's :class:`_Frontend` form."""
        if self.python is not None:
            return self.python.finish(n_intervals)
        return _seal(
            dict(zip(_FRONTEND_SLOTS, self.state.tolist())), self.actions,
            self.config.btac is not None, self.intervals.tolist(),
            n_intervals, native=True,
        )


def _frontend_geometry(config: CoreConfig, segment: int) -> np.ndarray | None:
    """The native walk's packed geometry (the kernel's ``G_*`` enum).

    None when the kernel cannot walk this group: it inlines gshare only,
    and every packed value must fit int64.
    """
    if config.predictor.kind != "gshare":
        return None
    spec, cache, btac = config.predictor, config.cache, config.btac
    values = [
        (1 << spec.table_bits) - 1,
        (1 << spec.history_bits) - 1,
        cache.sets - 1,
        cache.line_bytes,
        cache.ways,
        btac.entries if btac else 0,
        btac.score_threshold if btac else 0,
        (1 << btac.score_bits) - 1 if btac else 0,
        btac.initial_score if btac else 0,
        segment,
    ]
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def _new_frontend(config: CoreConfig, segment: int):
    """The native walk when the kernel can run it, else the Python one."""
    lib = _native_kernel()
    if lib is not None:
        geometry = _frontend_geometry(config, segment)
        if geometry is not None:
            return _NativeFrontendPass(lib, config, segment, geometry)
    return _FrontendPass(config, segment)


def _frontend_pass(
    trace: Trace, config: CoreConfig, segment: int, n_intervals: int
) -> _Frontend:
    """Evolve predictor/BTAC/L1D over the trace once, emitting actions.

    Mirrors the flags-handling section of ``Core._simulate_columnar``
    statement for statement — same gshare, same slot-probe BTAC reuse,
    same LRU cache — but instead of steering a live timing loop it
    records each event's consequence as an action byte. Only flagged
    events are visited (plain ALU ops need no frontend). A single-feed
    walk.
    """
    walker = _new_frontend(config, segment if n_intervals else 0)
    walker.feed(trace)
    return walker.finish(n_intervals)


# --------------------------------------------------------------------
# Native kernels (compiled once per host, loaded once per process).
# --------------------------------------------------------------------

_NATIVE_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Frontend geometry slots (packed by _frontend_geometry). */
enum {
    G_TABLE_MASK, G_HISTORY_MASK, G_SET_MASK, G_LINE_BYTES, G_WAYS,
    G_BTAC_ENTRIES, G_SCORE_THRESHOLD, G_MAX_SCORE, G_INITIAL_SCORE,
    G_SEGMENT
};

/* Carried frontend state slots (the order of _FRONTEND_SLOTS). */
enum {
    S_HISTORY, S_BLOCK_START, S_STARTED, S_BASE, S_BTAC_USED,
    S_BRANCHES, S_CONDITIONAL, S_TAKEN, S_DIRECTION_MISSES,
    S_TARGET_MISSES, S_TAKEN_BUBBLES, S_LOADS, S_STORES, S_LOAD_MISSES,
    S_CACHE_ACCESSES, S_CACHE_MISSES, S_BTAC_LOOKUPS, S_BTAC_HITS,
    S_BTAC_PREDICTIONS, S_BTAC_CORRECT, S_BTAC_INCORRECT,
    S_BTAC_ALLOCATIONS, S_COUNT
};

/* Walk one segment's events through the shared frontend: inlined
 * gshare, LRU L1D (most-recently-used line at the back of its set),
 * score-replaced BTAC. Writes one action byte per flagged event and
 * carries every piece of state in the caller's arrays, so consecutive
 * segments walk exactly like one trace. Returns 1, before touching any
 * state, when an access's byte address would overflow int64. */
int repro_frontend_walk(
    int64_t n, const uint8_t *flags, const int64_t *pc,
    const int64_t *next_pc, const int64_t *address, const int64_t *geo,
    uint8_t *table, int64_t *lines, int64_t *fill, int64_t *btac,
    int64_t *state, int64_t *intervals, int64_t interval_cap,
    uint8_t *action)
{
    for (int64_t i = 0; i < n; i++)
        if ((flags[i] & 24) &&
            (address[i] > INT64_MAX / 8 || address[i] < INT64_MIN / 8))
            return 1;
    const uint64_t table_mask = (uint64_t)geo[G_TABLE_MASK];
    const uint64_t history_mask = (uint64_t)geo[G_HISTORY_MASK];
    const int64_t set_mask = geo[G_SET_MASK];
    const int64_t line_bytes = geo[G_LINE_BYTES], ways = geo[G_WAYS];
    const int64_t btac_entries = geo[G_BTAC_ENTRIES];
    const int64_t threshold = geo[G_SCORE_THRESHOLD];
    const int64_t max_score = geo[G_MAX_SCORE];
    const int64_t initial_score = geo[G_INITIAL_SCORE];
    const int64_t segment = geo[G_SEGMENT];
    int64_t s[S_COUNT];
    memcpy(s, state, sizeof s);
    uint64_t history = (uint64_t)s[S_HISTORY];
    if (!s[S_STARTED]) { s[S_BLOCK_START] = pc[0]; s[S_STARTED] = 1; }
    int64_t block_start = s[S_BLOCK_START];
    for (int64_t i = 0; i < n; i++) {
        const int f = flags[i];
        if (!f) continue;
        int act = 0;
        if (f & 24) {  /* load or store */
            const int64_t byte = address[i] * 8;
            int64_t line = byte / line_bytes;
            if (byte % line_bytes < 0) line -= 1;  /* floor, as Python's // */
            int64_t *set = lines + (line & set_mask) * ways;
            int64_t *count = fill + (line & set_mask);
            int64_t k = *count - 1;
            while (k >= 0 && set[k] != line) k--;
            const int hit = k >= 0;
            s[S_CACHE_ACCESSES]++;
            if (hit) {
                for (; k < *count - 1; k++) set[k] = set[k + 1];
            } else {
                s[S_CACHE_MISSES]++;
                if (*count < ways) *count += 1;
                else for (k = 0; k < ways - 1; k++) set[k] = set[k + 1];
            }
            set[*count - 1] = line;
            if (f & 8) {
                s[S_LOADS]++;
                if (hit) act = 8;
                else { s[S_LOAD_MISSES]++; act = 16; }
            } else {
                s[S_STORES]++;
            }
        }
        if (f & 1) {  /* branch */
            const int taken = (f & 4) != 0;
            int mispredicted = 0;
            s[S_BRANCHES]++;
            if (taken) s[S_TAKEN]++;
            if (f & 2) {  /* conditional: gshare */
                const uint64_t index =
                    ((uint64_t)pc[i] ^ history) & table_mask;
                const int counter = table[index];
                s[S_CONDITIONAL]++;
                if (taken) {
                    if (counter < 3) table[index] = (uint8_t)(counter + 1);
                    history = ((history << 1) | 1) & history_mask;
                    mispredicted = counter < 2;
                } else {
                    if (counter > 0) table[index] = (uint8_t)(counter - 1);
                    history = (history << 1) & history_mask;
                    mispredicted = counter >= 2;
                }
            }
            if (mispredicted) {
                s[S_DIRECTION_MISSES]++;
                act |= 1;
            } else if (!taken) {
                act |= 3;
            } else if (btac_entries == 0) {
                s[S_TAKEN_BUBBLES]++;
                act |= 2;
            } else {
                const int64_t target = next_pc[i];
                int64_t *entry = NULL;
                for (int64_t e = 0; e < s[S_BTAC_USED]; e++)
                    if (btac[3 * e] == block_start) {
                        entry = btac + 3 * e;
                        break;
                    }
                s[S_BTAC_LOOKUPS]++;
                if (entry != NULL) s[S_BTAC_HITS]++;
                if (entry == NULL || entry[2] < threshold) {
                    s[S_TAKEN_BUBBLES]++;
                    act |= 2;
                } else {
                    s[S_BTAC_PREDICTIONS]++;
                    if (entry[1] == target) {
                        s[S_BTAC_CORRECT]++;
                        act |= 3;
                    } else {
                        s[S_BTAC_INCORRECT]++;
                        s[S_TARGET_MISSES]++;
                        act |= 4;
                    }
                }
                if (entry != NULL) {
                    if (entry[1] == target) {
                        if (entry[2] < max_score) entry[2] += 1;
                    } else if (entry[2] > 0) {
                        entry[2] = 0;
                    } else {
                        entry[1] = target;
                    }
                } else {
                    /* A free slot, else the first lowest-score one. */
                    int64_t victim = s[S_BTAC_USED];
                    if (victim < btac_entries) {
                        s[S_BTAC_USED]++;
                    } else {
                        victim = 0;
                        for (int64_t e = 1; e < btac_entries; e++)
                            if (btac[3 * e + 2] < btac[3 * victim + 2])
                                victim = e;
                    }
                    btac[3 * victim] = block_start;
                    btac[3 * victim + 1] = target;
                    btac[3 * victim + 2] = initial_score;
                    s[S_BTAC_ALLOCATIONS]++;
                }
            }
            if (taken || mispredicted) block_start = next_pc[i];
            if (segment > 0) {
                const int64_t k = (s[S_BASE] + i) / segment;
                intervals[k]++;
                if (mispredicted) intervals[interval_cap + k]++;
            }
        }
        action[i] = (uint8_t)act;
    }
    s[S_HISTORY] = (int64_t)history;
    s[S_BLOCK_START] = block_start;
    s[S_BASE] += n;
    memcpy(state, s, sizeof s);
    return 0;
}

/* Replay one config over one action stream, from fresh state. Event
 * i's static facts are row sid[i] of `rows`: s1, s2, s3, unit,
 * occupancy, latency, dst (8 int64 slots). `ring` is the commit-window
 * tail: slot wi holds the commit cycle of the event `window` places
 * back (0 before the first `window` events).
 *
 * A usage-lane cell counts the ops a unit issues in one cycle, never
 * more than the unit count, so the lanes are int32. Each lane is a
 * ring of `cells` (a power of two) indexed by cycle & (cells - 1). No
 * op of event i or later issues before event i's dispatch cycle, and
 * that cycle never decreases (penalties are >= 0, a flush restarts
 * after the flushing op completes, commits never go back), so the
 * cells below it are dead: they are zeroed as it advances, and every
 * index read or written is first checked against [dispatch, dispatch
 * + cells), where the ring holds each cycle's count exactly. Returns
 * 0, or 1 when an index would leave that window. */
static int replay_one(
    int64_t n_events, const int *sid, const int64_t *rows,
    const uint8_t *action, const int64_t *p,
    int64_t interval_size, int64_t n_intervals,
    int64_t *cycles_out, int64_t *stall_out, int64_t *interval_out,
    int64_t *ring, int32_t *const usage[3], int64_t cells)
{
    const int64_t fetch_width = p[0], commit_width = p[1];
    const int64_t depth = p[2], window = p[3];
    const int64_t taken_penalty = p[4], wrong_penalty = p[5];
    const int64_t caps[3] = {p[6], p[7], p[8]};
    const int64_t hit_latency = p[9], miss_latency = p[10];
    const int64_t mask = cells - 1;
    int64_t reg_ready[34];
    memset(reg_ready, 0, sizeof reg_ready);
    memset(ring, 0, (size_t)window * sizeof(int64_t));
    for (int u = 0; u < 3; u++)
        memset(usage[u], 0, (size_t)cells * sizeof(int32_t));
    int64_t wi = 0;
    int64_t dispatch_base = depth;
    int64_t live = 0;  /* cells of cycles below this are zeroed */
    int64_t fetched = 0, last_commit = 0, committed = 0;
    int64_t stall[6] = {0, 0, 0, 0, 0, 0};
    int64_t next_boundary =
        (interval_size > 0 && n_intervals > 0) ? interval_size : -1;
    int64_t interval_idx = 0;
    for (int64_t i = 0; i < n_events; i++) {
        const int64_t *row = rows + 8 * (int64_t)sid[i];
        if (fetched >= fetch_width) { dispatch_base += 1; fetched = 0; }
        fetched += 1;
        int64_t dispatch = dispatch_base;
        if (ring[wi] > dispatch) dispatch = ring[wi];
        if (dispatch > live) {
            /* Recycle the dead cells, at most one turn of the ring. */
            int64_t c = dispatch - live > cells ? dispatch - cells : live;
            for (; c < dispatch; c++) {
                usage[0][c & mask] = 0;
                usage[1][c & mask] = 0;
                usage[2][c & mask] = 0;
            }
            live = dispatch;
        }
        const int64_t limit = dispatch + cells;
        int64_t ready = reg_ready[row[0]];
        if (reg_ready[row[1]] > ready) ready = reg_ready[row[1]];
        if (reg_ready[row[2]] > ready) ready = reg_ready[row[2]];
        int64_t wait_dep, limiter;
        if (ready > dispatch) { wait_dep = ready; limiter = 1; }
        else { wait_dep = dispatch; limiter = 0; }
        const int64_t u = row[3];
        int64_t issue;
        if (u == 3) {
            issue = wait_dep;
        } else {
            int32_t *us = usage[u];
            const int64_t cap = caps[u];
            const int64_t o = row[4];
            int64_t cycle = wait_dep;
            if (o == 1) {
                /* The first cycle from wait_dep with a free slot. */
                for (;;) {
                    if (cycle >= limit) return 1;
                    if (us[cycle & mask] < cap) break;
                    cycle += 1;
                }
                us[cycle & mask] += 1;
            } else {
                /* Non-pipelined op: the first cycle from wait_dep
                 * with the unit free for the whole occupancy. */
                for (;;) {
                    if (o > limit - cycle) return 1;
                    int64_t k = 0;
                    for (; k < o; k++)
                        if (us[(cycle + k) & mask] >= cap) break;
                    if (k == o) break;
                    cycle += 1;
                }
                for (int64_t k = 0; k < o; k++) us[(cycle + k) & mask] += 1;
            }
            if (cycle > wait_dep) limiter = u + 2;
            issue = cycle;
        }
        const int a = action[i];
        int64_t latency = row[5];
        if (a & 8) latency = hit_latency;
        else if (a & 16) { latency = miss_latency; limiter = 5; }
        const int64_t complete = issue + latency;
        reg_ready[row[6]] = complete;
        const int ba = a & 7;
        if (ba == 1) {
            dispatch_base = complete + 1 + depth; fetched = 0;
        } else if (ba == 2) {
            dispatch_base += taken_penalty; fetched = 0;
        } else if (ba == 3) {
            fetched = fetch_width;
        } else if (ba == 4) {
            dispatch_base += wrong_penalty; fetched = 0;
        }
        if (complete > last_commit) {
            stall[limiter] += complete - last_commit;
            last_commit = complete;
            committed = 1;
        } else {
            committed += 1;
            if (committed > commit_width) {
                stall[limiter] += 1;
                last_commit += 1;
                committed = 1;
            }
        }
        ring[wi] = last_commit;
        wi = wi + 1 == window ? 0 : wi + 1;
        if (i + 1 == next_boundary) {
            interval_out[interval_idx] = last_commit;
            interval_idx += 1;
            next_boundary = interval_idx < n_intervals
                ? next_boundary + interval_size : -1;
        }
    }
    *cycles_out = last_commit + 1;
    for (int k = 0; k < 6; k++) stall_out[k] = stall[k];
    return 0;
}

/* Replay work items until none are left. Item c is action stream
 * actions[c] under the parameter row params + 12 * c; the call claims
 * the entries of `order` through the shared `cursor`, so several
 * threads may run it at once over one item set, each with its own
 * scratch: `ring` (as many int64 slots as the largest window) and
 * three int32 usage lanes of `cells` cells each. An item writes only
 * its own rows of cycles_out, stall_out (6 slots) and interval_out
 * (n_intervals slots), and sets status[c] to 0, or to 1 when its lanes
 * would need more than `cells` cycles of look-ahead (the caller
 * retries it with a larger ring or replays it in Python). */
void repro_replay_batch(
    int64_t n_events, const int *sid, const int64_t *rows,
    const uint8_t *const *actions, const int64_t *params,
    int64_t interval_size, int64_t n_intervals,
    const int64_t *order, int64_t n_order, int64_t *cursor,
    int64_t *cycles_out, int64_t *stall_out, int64_t *interval_out,
    int64_t *status, int64_t *ring, int32_t *lanes, int64_t cells)
{
    int32_t *const usage[3] = {lanes, lanes + cells, lanes + 2 * cells};
    for (;;) {
        const int64_t k = __atomic_fetch_add(cursor, 1, __ATOMIC_RELAXED);
        if (k >= n_order) return;
        const int64_t c = order[k];
        status[c] = replay_one(
            n_events, sid, rows, actions[c], params + 12 * c,
            interval_size, n_intervals, cycles_out + c, stall_out + 6 * c,
            interval_out + c * n_intervals, ring, usage, cells);
    }
}
"""

_native_state: dict = {}


def native_enabled() -> bool:
    """Whether the compiled kernels may be used (REPRO_NATIVE)."""
    value = os.environ.get("REPRO_NATIVE", "").strip().lower()
    return value not in {"off", "0", "false", "no"}


def _build_native():
    """Compile (or reuse) the kernels; returns the loaded library."""
    digest = hashlib.sha256(_NATIVE_SOURCE.encode()).hexdigest()[:12]
    try:
        tag = f"{os.getuid()}"
    except AttributeError:  # pragma: no cover - non-POSIX
        tag = "shared"
    cache_dir = Path(tempfile.gettempdir()) / f"repro-native-{tag}"
    so_path = cache_dir / f"replay_{digest}.so"
    if not so_path.exists():
        compiler = (
            shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        )
        if compiler is None:
            return None
        cache_dir.mkdir(parents=True, exist_ok=True)
        # The source goes in on stdin and the library out under a name
        # no other builder uses, so concurrent first builds never read
        # or install a half-written file; the rename is atomic.
        tmp = so_path.with_name(
            f"replay_{digest}.{os.getpid()}.{secrets.token_hex(4)}.tmp.so"
        )
        try:
            subprocess.run(
                [compiler, "-O2", "-pipe", "-shared", "-fPIC",
                 "-o", str(tmp), "-x", "c", "-"],
                input=_NATIVE_SOURCE.encode(),
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, so_path)
        finally:
            tmp.unlink(missing_ok=True)
    lib = ctypes.CDLL(str(so_path))
    pointer, count = ctypes.c_void_p, ctypes.c_longlong
    lib.repro_frontend_walk.restype = ctypes.c_int
    lib.repro_frontend_walk.argtypes = (
        [count] + [pointer] * 11 + [count, pointer]
    )
    lib.repro_replay_batch.restype = None
    lib.repro_replay_batch.argtypes = (
        [count] + [pointer] * 4 + [count, count, pointer, count]
        + [pointer] * 7 + [count]
    )
    return lib


def _native_kernel():
    """The loaded kernel library, or None (cached per process)."""
    if not native_enabled():
        return None
    if "lib" not in _native_state:
        try:
            _native_state["lib"] = _build_native()
        except Exception:
            _native_state["lib"] = None
    return _native_state["lib"]


def _config_params(config: CoreConfig) -> list[int]:
    """One config's packed int64 parameter row for the replay."""
    return [
        config.fetch_width,
        config.commit_width,
        config.pipeline_depth,
        config.window,
        config.taken_branch_penalty,
        config.btac.wrong_target_penalty if config.btac else 0,
        config.fxu_count,
        config.lsu_count,
        config.bru_count,
        config.cache.hit_latency,
        config.cache.hit_latency + config.cache.miss_penalty,
        0,
    ]


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


#: A config with a packed parameter above this takes the Python replay:
#: the kernel's usage lanes are int32, and the bound keeps the other
#: parameters (penalties, latencies, the window) inside its int64 rows
#: and cycle arithmetic.
_LANE_MAX = 2**31 - 1

#: Threads one replay call may use; None means one per CPU the process
#: may run on. Pool workers lower it to their share of the host.
_thread_budget: int | None = None


def host_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS
    reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def set_replay_threads(count: int | None) -> None:
    """Cap the threads of every later replay call (None: one per CPU
    of the affinity mask). Each pool worker sets its share at start-up,
    so a pool of N workers uses the host's CPUs once, not N times."""
    global _thread_budget
    _thread_budget = count


def replay_threads() -> int:
    """How many threads a replay call with enough configs uses."""
    return _thread_budget or host_cpus()


#: Usage-lane ring cells per replay thread on the first attempt: a
#: power of two, 48 KB for the three int32 lanes. A lane must hold
#: the cycles between an event's dispatch and the last cycle the ops
#: in flight book, which the window's dependence chains set: every
#: config the experiments and the benchmark sweep replay fits in 512,
#: and a chain of 24 dependent loads missing for 160 cycles still fits.
#: An item that needs more retries with four times the ring, then
#: replays in Python.
_RING_CELLS = 4096


def _scratch(window: int, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """One replay thread's scratch: the commit-window ring (``window``
    int64 slots) and three int32 usage lanes of ``cells`` cells. Its
    size depends on the configs only, never on the trace's length."""
    return np.empty(window, dtype=np.int64), np.empty(3 * cells, np.int32)


def _in_threads(count: int, task, *args) -> None:
    """Run ``task(*args)`` on ``count`` threads, the calling thread
    among them; return once every one has finished, re-raising the
    first error. One thread runs ``task`` inline and starts none."""
    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            task(*args)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=guarded) for _ in range(count - 1)]
    for helper in helpers:
        helper.start()
    try:
        task(*args)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def _run_native(
    lib,
    meta: _StaticMeta,
    actions: list[np.ndarray],
    rows: list[list[int]],
    interval_size: int,
    n_intervals: int,
):
    """Replay every ``(actions[k], rows[k])`` item in the C kernel.

    The items go out through one shared cursor to
    ``min(items, replay_threads())`` threads, the calling thread among
    them, each with its own scratch, so uneven configs balance out.
    An item whose usage lanes would overflow their ring retries with a
    ring four times larger. Returns per-item cycles, stall rows,
    interval commits and ``done`` flags; an item not done (still
    overflowing, or a packed parameter beyond ``_LANE_MAX``) needs the
    Python replay.
    """
    n = meta.n
    sid = np.ascontiguousarray(meta.sid, dtype=np.intc)
    table = np.ascontiguousarray(meta.rows, dtype=np.int64)
    streams = [np.ascontiguousarray(a, dtype=np.uint8) for a in actions]
    if (len(sid) != n or table.shape[1] != _ROW
            or any(len(stream) != n for stream in streams)):
        raise SimulationError("replay columns disagree on the event count")
    n_items = len(rows)
    status = np.ones(n_items, dtype=np.int64)  # 0 once replayed
    cycles = np.zeros(n_items, dtype=np.int64)
    stalls = np.zeros((n_items, 6), dtype=np.int64)
    iv = np.zeros((n_items, max(1, n_intervals)), dtype=np.int64)
    todo = np.array(
        [k for k, row in enumerate(rows) if max(row) <= _LANE_MAX],
        dtype=np.int64,
    )
    params = np.zeros((n_items, _PARAM_STRIDE), dtype=np.int64)
    for k in todo.tolist():
        params[k] = rows[k]
    pointers = np.array([_ptr(stream) for stream in streams], dtype=np.uintp)
    window = max((rows[k][3] for k in todo.tolist()), default=0)

    def replay(todo: np.ndarray, cursor: np.ndarray, cells: int) -> None:
        ring, lanes = _scratch(window, cells)
        lib.repro_replay_batch(
            n, _ptr(sid), _ptr(table), _ptr(pointers), _ptr(params),
            interval_size, n_intervals, _ptr(todo), len(todo),
            _ptr(cursor), _ptr(cycles), _ptr(stalls), _ptr(iv),
            _ptr(status), _ptr(ring), _ptr(lanes), cells,
        )

    cells = _RING_CELLS
    for _attempt in range(2):
        if not len(todo):
            break
        cursor = np.zeros(1, dtype=np.int64)
        _in_threads(
            min(len(todo), replay_threads()), replay, todo, cursor, cells
        )
        todo = todo[status[todo] != 0]
        cells *= 4
    return (
        cycles.tolist(),
        stalls.tolist(),
        iv[:, :n_intervals].tolist(),
        (status == 0).tolist(),
    )


def _run_python(
    meta: _StaticMeta,
    action: np.ndarray,
    rows: list[list[int]],
    segment: int,
    n_intervals: int,
):
    """Pure-Python replay, bit-for-bit the native kernel's semantics."""
    table = [tuple(row) for row in meta.rows.tolist()]
    statics = [table[s] for s in meta.sid.tolist()]
    act = action.tolist()
    n = meta.n
    all_cycles: list[int] = []
    all_stalls: list[list[int]] = []
    all_iv: list[list[int]] = []
    for p in rows:
        (fetch_width, commit_width, depth, window, taken_penalty,
         wrong_penalty, fxu_cap, lsu_cap, bru_cap, hit_latency,
         miss_latency, _pad) = p
        caps = (fxu_cap, lsu_cap, bru_cap)
        reg_ready = [0] * 34
        usages: tuple[dict, dict, dict] = ({}, {}, {})
        window_commits = [0] * window
        wappend = window_commits.append
        dispatch_base = depth
        fetched = 0
        last_commit = 0
        committed = 0
        stall = [0, 0, 0, 0, 0, 0]
        iv_commits: list[int] = []
        next_boundary = segment if n_intervals else -1
        for i in range(n):
            s1, s2, s3, u, o, latency, dst, _ = statics[i]
            if fetched >= fetch_width:
                dispatch_base += 1
                fetched = 0
            fetched += 1
            dispatch = dispatch_base
            slot_free = window_commits[i]
            if slot_free > dispatch:
                dispatch = slot_free
            ready = reg_ready[s1]
            value = reg_ready[s2]
            if value > ready:
                ready = value
            value = reg_ready[s3]
            if value > ready:
                ready = value
            if ready > dispatch:
                wait_dep = ready
                limiter = 1
            else:
                wait_dep = dispatch
                limiter = 0
            if u == 3:
                issue = wait_dep
            else:
                usage = usages[u]
                cap = caps[u]
                uget = usage.get
                cycle = wait_dep
                if o == 1:
                    count = uget(cycle, 0)
                    while count >= cap:
                        cycle += 1
                        count = uget(cycle, 0)
                    usage[cycle] = count + 1
                else:
                    while True:
                        for k in range(o):
                            if uget(cycle + k, 0) >= cap:
                                cycle += 1
                                break
                        else:
                            break
                    for k in range(o):
                        usage[cycle + k] = uget(cycle + k, 0) + 1
                if cycle > wait_dep:
                    limiter = u + 2
                issue = cycle
            a = act[i]
            if a & 8:
                latency = hit_latency
            elif a & 16:
                latency = miss_latency
                limiter = 5
            complete = issue + latency
            reg_ready[dst] = complete
            ba = a & 7
            if ba:
                if ba == 1:
                    dispatch_base = complete + 1 + depth
                    fetched = 0
                elif ba == 2:
                    dispatch_base += taken_penalty
                    fetched = 0
                elif ba == 3:
                    fetched = fetch_width
                else:
                    dispatch_base += wrong_penalty
                    fetched = 0
            if complete > last_commit:
                stall[limiter] += complete - last_commit
                last_commit = complete
                committed = 1
            else:
                committed += 1
                if committed > commit_width:
                    stall[limiter] += 1
                    last_commit += 1
                    committed = 1
            wappend(last_commit)
            if i + 1 == next_boundary:
                iv_commits.append(last_commit)
                next_boundary = (
                    next_boundary + segment
                    if len(iv_commits) < n_intervals
                    else -1
                )
        all_cycles.append(last_commit + 1)
        all_stalls.append(stall)
        all_iv.append(iv_commits)
    return all_cycles, all_stalls, all_iv


# --------------------------------------------------------------------
# Group driver and public entry point.
# --------------------------------------------------------------------


def _sim_result(
    meta: _StaticMeta,
    front: _Frontend,
    config: CoreConfig,
    cycles: int,
    stalls: list[int],
    iv_commits: list[int],
    segment: int,
    n_intervals: int,
) -> SimResult:
    """One config's :class:`SimResult` from its frontend and replay."""
    result = SimResult(
        instructions=meta.n,
        cycles=cycles,
        branches=front.branches,
        conditional_branches=front.conditional_branches,
        taken_branches=front.taken_branches,
        direction_mispredictions=front.direction_mispredictions,
        target_mispredictions=front.target_mispredictions,
        taken_bubbles=front.taken_bubbles,
        loads=front.loads,
        stores=front.stores,
        load_misses=front.load_misses,
        fxu_ops=meta.fxu_ops,
    )
    result.stall_cycles = dict(zip(_LIMITERS, stalls))
    result.cache = CacheStats(
        accesses=front.cache_accesses, misses=front.cache_misses
    )
    if config.btac is not None and front.btac is not None:
        result.btac = BtacStats(*front.btac)
    intervals: list[IntervalRecord] = []
    previous = 0
    for k in range(n_intervals):
        commit = iv_commits[k]
        intervals.append(
            IntervalRecord(
                start_instruction=k * segment,
                instructions=segment,
                cycles=max(1, commit - previous),
                branches=front.iv_branches[k],
                direction_mispredictions=front.iv_mispredicts[k],
            )
        )
        previous = commit
    result.intervals = intervals
    return result


def _interval_plan(interval_size: int | None, n: int) -> tuple[int, int]:
    """(interval length, whole intervals) over ``n`` events, as scalar."""
    if interval_size is None:
        return n, 0
    segment = max(1, interval_size)
    return segment, n // segment


def _frontend_groups(configs: list[CoreConfig]) -> list[list[int]]:
    """Config indices grouped by :func:`frontend_key`, first seen first."""
    groups: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(frontend_key(config), []).append(index)
    return list(groups.values())


def _replay_groups(
    meta: _StaticMeta,
    passes,
    configs: list[CoreConfig],
    segment: int,
    n_intervals: int,
) -> BatchOutcome:
    """Replay every config of every ``(members, frontend)`` pair; one
    native call takes all of them, so even one-config groups spread
    over the CPUs. Configs the kernel cannot replay take the Python
    replay, one call per frontend."""
    items = [(index, front) for members, front in passes for index in members]
    rows = [_config_params(configs[index]) for index, _ in items]
    lib = _native_kernel()
    if lib is not None:
        cycles, stalls, iv_commits, done = _run_native(
            lib, meta, [front.action for _, front in items], rows,
            segment if n_intervals else 0, n_intervals,
        )
    else:
        cycles, stalls, iv_commits, done = (
            [None] * len(items) for _ in range(4)
        )
    leftovers: dict[int, list[int]] = {}
    for k, (_, front) in enumerate(items):
        if not done[k]:
            leftovers.setdefault(id(front), []).append(k)
    for ks in leftovers.values():
        out = _run_python(
            meta, items[ks[0]][1].action, [rows[k] for k in ks], segment,
            n_intervals,
        )
        for k, cycle, stall, commits in zip(ks, *out):
            cycles[k], stalls[k], iv_commits[k] = cycle, stall, commits
    results: list[SimResult | None] = [None] * len(configs)
    for k, (index, front) in enumerate(items):
        results[index] = _sim_result(
            meta, front, configs[index], cycles[k], stalls[k],
            iv_commits[k], segment, n_intervals,
        )
    if guards_enabled():
        for result, config in zip(results, configs):
            check_sim_result(result, config)
    return BatchOutcome(
        results, [True] * len(configs), any(done),
        any(front.native for _, front in items),
    )


def simulate_batched(
    trace,
    configs,
    interval_size: int | None = None,
) -> BatchOutcome:
    """Simulate ``trace`` under every config, sharing frontend passes.

    Equivalent to ``[Core(c).simulate(trace, interval_size) for c in
    configs]`` — byte-identical ``SimResult``s, fresh core state per
    config — but configs that share a frontend group walk the trace
    once, and every group, one config or many, runs the shared pass
    and the replay. Object-form event lists and static tables the
    packed encoding cannot represent fall back to scalar
    ``Core.simulate`` for every config (reported through
    :class:`BatchOutcome.batched`).
    """
    configs = list(configs)
    if not configs:
        return BatchOutcome([], [], False)
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    meta = _static_meta(trace) if isinstance(trace, Trace) else None
    if meta is None:
        from repro.uarch.core import Core

        return BatchOutcome(
            [Core(config).simulate(trace, interval_size)
             for config in configs],
            [False] * len(configs),
            False,
        )
    segment, n_intervals = _interval_plan(interval_size, meta.n)
    passes = (
        (members, _frontend_pass(
            trace, configs[members[0]], segment, n_intervals))
        for members in _frontend_groups(configs)
    )
    return _replay_groups(meta, passes, configs, segment, n_intervals)


def simulate_batched_stream(
    segments,
    configs,
    interval_size: int | None = None,
) -> BatchOutcome:
    """Batched multi-config simulation over a segment stream.

    The streaming form of :func:`simulate_batched`: ``segments`` is any
    iterator of columnar :class:`Trace` segments (or event lists), such
    as the v3 tracestore's lazy reader or the segmented interpreter and
    synthetic generators, and every frontend group walks each segment
    exactly once with carried predictor/BTAC/cache state, one-config
    groups included. Results are byte-identical to ``simulate_batched``
    on the concatenated trace. A stream whose first static table the
    columnar encoding cannot represent is materialised and delegated to
    the monolithic entry point, whose scalar fallback handles it.

    Bounded-memory note: the timing replay needs the whole action and
    static-id columns, so this holds five bytes per event of packed
    numpy columns — but never the decoded Python-side trace, which is
    what dominates a monolithic run's footprint.
    """
    configs = list(configs)
    if not configs:
        return BatchOutcome([], [], False)
    iterator = iter(segments)
    first = None
    for candidate in iterator:
        if not isinstance(candidate, Trace):
            candidate = Trace.from_events(candidate)
        if len(candidate):
            first = candidate
            break
    if first is None:
        raise SimulationError("cannot simulate an empty trace")
    if not columnar_supported(first.static):
        merged = Trace()
        merged.extend(first)
        for candidate in iterator:
            if not isinstance(candidate, Trace):
                candidate = Trace.from_events(candidate)
            merged.extend(candidate)
        return simulate_batched(merged, configs, interval_size)

    chunk = 0 if interval_size is None else max(1, interval_size)
    walkers = [
        (members, _new_frontend(configs[members[0]], chunk))
        for members in _frontend_groups(configs)
    ]
    metas: list[_StaticMeta] = []

    def feed(segment: Trace) -> None:
        meta = _static_meta(segment)
        if meta is None:
            raise SimulationError(
                "simulate_batched_stream requires columnar-supported "
                "static tables (<= 3 sources per instruction)"
            )
        metas.append(meta)
        for _, walker in walkers:
            walker.feed(segment)

    feed(first)
    for candidate in iterator:
        if not isinstance(candidate, Trace):
            candidate = Trace.from_events(candidate)
        if len(candidate):
            feed(candidate)

    meta = _concat_meta(metas)
    segment, n_intervals = _interval_plan(interval_size, meta.n)
    passes = (
        (members, walker.finish(n_intervals)) for members, walker in walkers
    )
    return _replay_groups(meta, passes, configs, segment, n_intervals)
