"""Trace-driven POWER5-like core timing model.

A scoreboard model in the SMARTS/SystemSim tradition: the functional
interpreter produces the committed-instruction stream, and this model
assigns each instruction fetch/issue/complete/commit cycles subject to:

* fetch bandwidth (``fetch_width``/cycle) and front-end redirects —
  direction mispredictions flush and refill the pipeline
  (``pipeline_depth`` cycles), correctly-predicted taken branches pay
  the POWER5's 2-cycle fetch bubble unless a confident BTAC supplies
  the next fetch address;
* register dependences (true RAW through the architected registers —
  renaming removes false dependences, as on POWER5);
* execution-unit structural limits: each unit class (FXU/LSU/BRU) can
  start ``count`` operations per cycle, scheduled out of order like
  POWER5's issue queues — the FXU count is the §VI-C experiment;
* a finite in-flight window (``window``): an instruction cannot issue
  until the instruction ``window`` slots ahead of it has committed;
* load latency through the L1D model;
* in-order commit of at most ``commit_width`` per cycle.

Each commit-gap cycle is attributed to the limiting resource of the
committing instruction, giving the CPI stack that Table I's
"completion stalls due to FXU" column reports.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import SimulationError
from repro.guards import guards_enabled
from repro.isa.instructions import UNIT_INDEX, Unit
from repro.isa.trace import (
    F_BRANCH,
    F_COND,
    F_LOAD,
    F_STORE,
    F_TAKEN,
    Trace,
    TraceEvent,
)
from repro.uarch.branch_predictor import GsharePredictor
from repro.uarch.btac import Btac, BtacStats
from repro.uarch.cache import WORD_BYTES, L1DCache
from repro.uarch.config import CoreConfig
from repro.uarch.guards import check_sim_result
from repro.uarch.result import _LIMITERS, IntervalRecord, SimResult

#: Dense unit indices used by the columnar hot loop.
_FXU = UNIT_INDEX[Unit.FXU]
_LSU = UNIT_INDEX[Unit.LSU]
_BRU = UNIT_INDEX[Unit.BRU]
_NONE = UNIT_INDEX[Unit.NONE]

#: Stall-limiter codes of the columnar loop (keys: ``_LIMITERS``).
_L_FETCH, _L_DEP, _L_CACHE = 0, 1, 5
#: Unit index -> limiter code (fxu/lsu/bru structural stalls).
_UNIT_LIMITER = (2, 3, 4)


class Core:
    """One simulated core. Feed traces with :meth:`simulate`.

    The predictor, BTAC and cache persist across calls, so a warm-up
    trace can be simulated first and the statistics reset (SMARTS-style
    functional warming) via :meth:`reset_stats`.
    """

    def __init__(self, config: CoreConfig | None = None) -> None:
        self.config = config or CoreConfig()
        # The predictor laboratory sits above the uarch layer (its
        # registry imports this package), so resolve the spec lazily.
        from repro.bpred.predictors import make_predictor

        self.predictor = make_predictor(self.config.predictor)
        self.btac = Btac(self.config.btac) if self.config.btac else None
        self.cache = L1DCache(self.config.cache)

    def reset_stats(self) -> None:
        """Clear predictor/BTAC/cache statistics (keep learned state)."""
        self.predictor.reset_stats()
        self.cache.reset_stats()
        if self.btac is not None:
            self.btac.stats = BtacStats()

    def simulate(
        self,
        trace: Trace | list[TraceEvent],
        interval_size: int | None = None,
    ) -> SimResult:
        """Run the timing model over ``trace`` and return statistics.

        Columnar :class:`Trace` inputs (and their zero-copy slice
        views) take the specialised integer hot loop; object-form lists
        take the retained reference loop. Both produce identical
        results — the golden-equality tests assert it on every kernel.
        ``interval_size`` (committed instructions) enables the
        time-series records used by Figure 2.
        """
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        if isinstance(trace, Trace):
            result = self._simulate_columnar(trace, interval_size)
        else:
            result = self._simulate_events(trace, interval_size)
        if guards_enabled():
            check_sim_result(result, self.config)
        return result

    def _simulate_events(
        self,
        trace: list[TraceEvent],
        interval_size: int | None = None,
    ) -> SimResult:
        """Object-form reference implementation (one event per object).

        Kept verbatim as the golden reference the columnar loop is
        checked against; not on the hot path.
        """
        config = self.config
        predictor = self.predictor
        btac = self.btac
        cache = self.cache

        fetch_width = config.fetch_width
        commit_width = config.commit_width
        depth = config.pipeline_depth
        taken_penalty = config.taken_branch_penalty

        reg_ready = [0] * 32
        # Per-unit-class issue bandwidth: usage[cycle] counts starts.
        unit_count = {
            Unit.FXU: config.fxu_count,
            Unit.LSU: config.lsu_count,
            Unit.BRU: config.bru_count,
        }
        unit_usage: dict[Unit, dict[int, int]] = {
            unit: {} for unit in unit_count
        }
        unit_floor = {unit: 0 for unit in unit_count}

        window = config.window
        window_commits = [0] * window
        window_pos = 0

        fetch_cycle = 0
        fetched_this_cycle = 0
        last_commit = 0
        committed_this_cycle = 0
        # BTAC is indexed by block *entrance* (§IV-D): the address the
        # current run of sequential fetch started at. A block whose exit
        # varies (several value-dependent branches inside) trains its
        # entry down until the BTAC forgoes prediction.
        block_start = trace[0].pc

        result = SimResult()
        # Only real limiters appear here; Unit.NONE instructions stall
        # as "fetch"/"dep", so a "none" key would just leak a dead zero
        # entry into cpi_stack() consumers.
        stall = {"fetch": 0, "dep": 0, "fxu": 0, "lsu": 0, "bru": 0,
                 "cache": 0}

        interval_start_instr = 0
        interval_start_cycle = 0
        interval_branches = 0
        interval_mispredicts = 0

        for event in trace:
            # ---- fetch ------------------------------------------------
            if fetched_this_cycle >= fetch_width:
                fetch_cycle += 1
                fetched_this_cycle = 0
            fetched_this_cycle += 1
            dispatch = fetch_cycle + depth
            # Finite in-flight window: wait for the instruction that
            # occupied this slot ``window`` instructions ago to commit.
            slot_free = window_commits[window_pos]
            if slot_free > dispatch:
                dispatch = slot_free

            # ---- issue ------------------------------------------------
            srcs = event.srcs
            if srcs:
                ready = max(reg_ready[s] for s in srcs)
            else:
                ready = 0
            wait_dep = max(dispatch, ready)
            limiter = "dep" if ready > dispatch else "fetch"

            unit = event.unit
            if unit is Unit.NONE:
                issue = wait_dep
            else:
                usage = unit_usage[unit]
                capacity = unit_count[unit]
                occupancy = event.occupancy
                cycle = wait_dep
                floor = unit_floor[unit]
                if cycle < floor:
                    cycle = floor
                if occupancy == 1:
                    while usage.get(cycle, 0) >= capacity:
                        cycle += 1
                    usage[cycle] = usage.get(cycle, 0) + 1
                else:
                    # Non-pipelined op (multiply): needs the unit free
                    # for its whole occupancy.
                    while any(
                        usage.get(cycle + k, 0) >= capacity
                        for k in range(occupancy)
                    ):
                        cycle += 1
                    for k in range(occupancy):
                        usage[cycle + k] = usage.get(cycle + k, 0) + 1
                if cycle > wait_dep:
                    limiter = unit.value
                issue = cycle
                if cycle == floor and usage[cycle] >= capacity:
                    while usage.get(floor, 0) >= capacity:
                        floor += 1
                    unit_floor[unit] = floor

            # ---- execute ----------------------------------------------
            latency = event.latency
            if event.is_load:
                result.loads += 1
                hit = cache.access(event.address)
                if hit:
                    latency = config.cache.hit_latency
                else:
                    latency = (
                        config.cache.hit_latency + config.cache.miss_penalty
                    )
                    result.load_misses += 1
                    limiter = "cache"
            elif event.is_store:
                result.stores += 1
                cache.access(event.address)
            complete = issue + latency
            dst = event.dst
            if dst is not None:
                reg_ready[dst] = complete

            if unit is Unit.FXU:
                result.fxu_ops += 1

            # ---- control flow -----------------------------------------
            if event.is_branch:
                result.branches += 1
                if event.taken:
                    result.taken_branches += 1
                mispredicted = False
                if event.is_conditional:
                    result.conditional_branches += 1
                    mispredicted = predictor.update(event.pc, event.taken)
                if mispredicted:
                    result.direction_mispredictions += 1
                    interval_mispredicts += 1
                    # Full flush: refetch starts after resolution.
                    fetch_cycle = complete + 1
                    fetched_this_cycle = 0
                elif event.taken:
                    # The taken bubble subsumes the group end; a BTAC
                    # hit reduces a taken branch to an ordinary
                    # end-of-group.
                    if btac is not None:
                        predicted_nia = btac.lookup(block_start)
                        if predicted_nia is None:
                            # Miss or forgone prediction: normal bubble.
                            fetch_cycle += taken_penalty
                            fetched_this_cycle = 0
                            result.taken_bubbles += 1
                        elif predicted_nia == event.next_pc:
                            btac.record_outcome(True)
                            fetched_this_cycle = fetch_width
                        else:
                            btac.record_outcome(False)
                            result.target_mispredictions += 1
                            # Wrong target caught at decode: a deeper
                            # bubble, not an execute-time flush.
                            fetch_cycle += (
                                config.btac.wrong_target_penalty
                            )
                            fetched_this_cycle = 0
                        btac.update(block_start, event.next_pc)
                    else:
                        fetch_cycle += taken_penalty
                        fetched_this_cycle = 0
                        result.taken_bubbles += 1
                else:
                    # Not-taken branch still ends its dispatch group
                    # (POWER5 group-formation rule).
                    fetched_this_cycle = fetch_width
                if event.taken or mispredicted:
                    block_start = event.next_pc
                interval_branches += 1

            # ---- commit -----------------------------------------------
            commit = complete if complete > last_commit else last_commit
            if commit == last_commit:
                committed_this_cycle += 1
                if committed_this_cycle > commit_width:
                    commit += 1
                    committed_this_cycle = 1
            else:
                committed_this_cycle = 1
            gap = commit - last_commit
            if gap > 0:
                stall[limiter] += gap
            last_commit = commit
            window_commits[window_pos] = commit
            window_pos += 1
            if window_pos == window:
                window_pos = 0
            result.instructions += 1

            # ---- intervals ---------------------------------------------
            if (
                interval_size is not None
                and result.instructions - interval_start_instr >= interval_size
            ):
                result.intervals.append(
                    IntervalRecord(
                        start_instruction=interval_start_instr,
                        instructions=result.instructions - interval_start_instr,
                        cycles=max(1, last_commit - interval_start_cycle),
                        branches=interval_branches,
                        direction_mispredictions=interval_mispredicts,
                    )
                )
                interval_start_instr = result.instructions
                interval_start_cycle = last_commit
                interval_branches = 0
                interval_mispredicts = 0

        result.cycles = last_commit + 1
        result.stall_cycles = stall
        result.cache = cache.stats
        if btac is not None:
            result.btac = btac.stats
        return result

    def _simulate_columnar(
        self,
        trace: Trace,
        interval_size: int | None = None,
    ) -> SimResult:
        """Columnar hot loop: same model, machine integers throughout.

        Mirrors :meth:`_simulate_events` statement for statement, but
        iterates the trace's packed columns with locals-bound lookups,
        dispatches on the per-event flags byte instead of five boolean
        attributes, and keeps every counter in a local integer until
        the end. The loop itself lives in
        :meth:`_simulate_columnar_segment`, which carries all uarch
        state in a :class:`_StreamState` — the monolithic path is the
        one-segment special case of the streaming path, so the golden
        matrix that pins this method to the object path covers the
        segment machinery too.
        """
        from repro.uarch.batched import columnar_supported

        if not columnar_supported(trace.static):
            # The ISA never reads more than three GPRs (STX), but a
            # hand-built table could; fall back to the golden path.
            return self._simulate_events(trace.to_events(), interval_size)
        state = _StreamState(self.config)
        self._simulate_columnar_segment(trace, interval_size, state)
        return self._finalize_stream(state)

    def simulate_stream(
        self,
        segments,
        interval_size: int | None = None,
    ) -> SimResult:
        """Run the timing model over an iterator of trace segments.

        ``segments`` yields columnar :class:`Trace` views/roots (or
        object-form event lists, converted on the fly) that tile one
        logical trace in order. All microarchitectural state — branch
        predictor, BTAC, L1D, register scoreboard, issue-queue usage,
        the in-flight commit window, fetch grouping and interval
        accounting — is carried across segment boundaries, so the
        result is **bit-identical** to :meth:`simulate` on the
        concatenated trace (the stream golden-equality matrix asserts
        it for every config, predictor kind and segment size). Peak
        memory is O(segment), not O(trace): each segment is released
        before the next is pulled from the iterator, and carried state
        is compacted at every boundary.
        """
        from repro.uarch.batched import columnar_supported

        state = _StreamState(self.config)
        for segment in segments:
            if not isinstance(segment, Trace):
                segment = Trace.from_events(segment)
            if len(segment) == 0:
                continue
            if not columnar_supported(segment.static):
                raise SimulationError(
                    "simulate_stream requires columnar-supported "
                    "static tables (<= 3 sources per instruction)"
                )
            self._simulate_columnar_segment(segment, interval_size, state)
            state.compact(self.config.window)
        if state.instructions == 0:
            raise SimulationError("cannot simulate an empty trace")
        result = self._finalize_stream(state)
        if guards_enabled():
            check_sim_result(result, self.config)
        return result

    def _finalize_stream(self, state: "_StreamState") -> SimResult:
        """Assemble the :class:`SimResult` from carried stream state."""
        result = SimResult(
            instructions=state.instructions,
            cycles=state.last_commit + 1,
            branches=state.branches,
            conditional_branches=state.conditional_branches,
            taken_branches=state.taken_branches,
            direction_mispredictions=state.direction_mispredictions,
            target_mispredictions=state.target_mispredictions,
            taken_bubbles=state.taken_bubbles,
            loads=state.loads,
            stores=state.stores,
            load_misses=state.load_misses,
            fxu_ops=state.fxu_ops,
        )
        result.stall_cycles = dict(zip(_LIMITERS, state.stall))
        result.cache = self.cache.stats
        if self.btac is not None:
            result.btac = self.btac.stats
        result.intervals = state.intervals
        return result

    def _simulate_columnar_segment(
        self,
        trace: Trace,
        interval_size: int | None,
        state: "_StreamState",
    ) -> None:
        """One segment of the columnar hot loop.

        Loads carried state from ``state`` into locals, runs the
        unchanged hot body over ``trace``'s columns, then stores the
        carried state back and folds this segment's counter deltas into
        the running totals (and into the live predictor/cache/BTAC
        stats objects, exactly as the monolithic loop's end-of-trace
        writeback did). Event indices are segment-local; interval
        bookkeeping and the in-flight window log are kept aligned to
        global positions via ``state.instructions`` and the carried
        window tail.
        """
        config = self.config
        predictor = self.predictor
        btac = self.btac
        cache = self.cache

        fetch_width = config.fetch_width
        commit_width = config.commit_width
        depth = config.pipeline_depth
        taken_penalty = config.taken_branch_penalty
        hit_latency = config.cache.hit_latency
        miss_latency = hit_latency + config.cache.miss_penalty
        wrong_target_penalty = (
            config.btac.wrong_target_penalty if config.btac else 0
        )

        # The default gshare predictor and the L1D are inlined below
        # (concrete classes Core itself constructs): their per-call
        # overhead is visible at this loop's event rates. State lives
        # in locals and is written back once after the loop. Any other
        # registered predictor runs through its update() method; the
        # golden-equality suite pins both routes to the object path.
        bp_update = None
        bp_table = bp_history = bp_hmask = bp_mask = 0
        if type(predictor) is GsharePredictor:
            bp_table = predictor._table
            bp_history = predictor._history
            bp_hmask = predictor._history_mask
            bp_mask = predictor._mask
        else:
            bp_update = predictor.update
        cache_sets = cache._sets
        cache_set_mask = cache._set_mask
        cache_line_bytes = cache._line_bytes
        cache_ways_n = cache._ways
        cache_accesses = cache_misses = 0
        if btac is not None:
            # The BTAC lookup and the training update share one tag
            # (the block's fetch address), so the loop probes the slot
            # index once and reuses the entry for both; only the
            # allocate-on-miss path stays a method call.
            btac_slot_get = btac._slot_of.get
            btac_entries = btac._entries
            btac_threshold = btac.config.score_threshold
            btac_max_score = btac._max_score
            btac_alloc = btac.update
            btac_lookups = btac_hits = btac_predictions = 0
            btac_correct = btac_incorrect = 0

        # Slots 0-31 are architectural registers. Slot 32 is a dummy
        # source (always 0) that pads every static's source tuple to
        # exactly three entries; slot 33 is a dummy destination sink so
        # the writeback below never needs a "has destination?" branch.
        # The list is carried (and mutated in place) across segments.
        reg_ready = state.reg_ready
        # Issue-queue state is specialised per unit (the loop below
        # dispatches on the unit index), so every piece lives in its
        # own local: no tuple indexing on the per-event path. The usage
        # dicts are carried across segments (compact() prunes cycles
        # that can no longer be probed); the floors travel via state.
        fxu_capacity = config.fxu_count
        lsu_capacity = config.lsu_count
        bru_capacity = config.bru_count
        fxu_usage = state.fxu_usage
        lsu_usage = state.lsu_usage
        bru_usage = state.bru_usage
        fxu_get = fxu_usage.get
        lsu_get = lsu_usage.get
        bru_get = bru_usage.get
        fxu_floor = state.fxu_floor
        lsu_floor = state.lsu_floor
        bru_floor = state.bru_floor

        # The reorder window is a flat commit-cycle log pre-seeded with
        # `window` entries: entry i is then the commit cycle of the
        # instruction `window` slots before event i, so the loop reads
        # it with the index it already has — no ring arithmetic, no
        # bounded-deque eviction. Entries are references to the shared
        # last_commit ints, so the log costs pointers, not objects.
        # Across segments the carried list is exactly the last `window`
        # commits (seeded with zeros initially), which keeps the
        # local-index read aligned: list slot i holds the commit of the
        # event `window` slots before segment-local event i.
        window = config.window
        window_commits = state.window_commits
        window_append = window_commits.append

        # fetch_cycle is only ever read as "fetch_cycle + depth", so
        # the loop tracks that sum directly (one add saved per event).
        dispatch_base = state.dispatch_base
        fetched_this_cycle = state.fetched_this_cycle
        last_commit = state.last_commit
        committed_this_cycle = state.committed_this_cycle

        start, stop = trace._bounds()
        # tolist() converts each column to plain ints in one C pass, so
        # the loop below never pays array->int boxing per access.
        pcs = trace.pc[start:stop].tolist()
        sids = trace.sid[start:stop].tolist()
        flags_col = trace.flags[start:stop].tolist()
        next_pcs = trace.next_pc[start:stop].tolist()
        addresses = trace.address[start:stop].tolist()
        static = trace.static
        unit_of = static.units
        occupancy_of = static.occupancies

        # One tuple per static instruction, unpacked in a single
        # UNPACK_SEQUENCE instead of five list subscripts per event.
        # Sources are padded to exactly three with the dummy slot 32;
        # "no destination" becomes the dummy sink slot 33. Occupancy
        # folds into the unit code: non-pipelined statics carry
        # unit + 4, which routes them past the fast per-unit branches
        # into the generic slow path (so the common path never tests
        # occupancy at all). Segments sharing a static table (zero-copy
        # views of one trace) reuse the previous segment's meta rows.
        meta = state._meta
        if (
            meta is None
            or state._meta_static is not static
            or len(meta) != len(static)
        ):
            meta = [
                (
                    srcs[0] if len(srcs) > 0 else 32,
                    srcs[1] if len(srcs) > 1 else 32,
                    srcs[2] if len(srcs) > 2 else 32,
                    unit if occupancy == 1 or unit == _NONE else unit + 4,
                    latency,
                    dst if dst >= 0 else 33,
                )
                for srcs, unit, latency, occupancy, dst in zip(
                    static.srcs,
                    static.units,
                    static.latencies,
                    static.occupancies,
                    static.dsts,
                )
            ]
            state._meta = meta
            state._meta_static = static
        # Resolving each event's meta row up front is one C-speed map
        # pass; the loop then pays a single subscript per event.
        event_meta = list(map(meta.__getitem__, sids))

        # BTAC indexing starts at the very first fetch address of the
        # whole stream; later segments carry the current block start.
        block_start = state.block_start
        if block_start is None:
            block_start = pcs[0]

        # Per-segment counter deltas: folded into the running totals
        # (and the live predictor/cache/BTAC stats) after the loop.
        branches = conditional_branches = taken_branches = 0
        direction_mispredictions = target_mispredictions = 0
        taken_bubbles = loads = stores = load_misses = 0
        # Stall attribution accumulates straight into the carried list.
        stall = state.stall
        intervals = state.intervals

        # Interval bookkeeping is global across segments: `base` is the
        # stream position of this segment's first event, and
        # `interval_next` the absolute position of the next boundary.
        base = state.instructions
        interval_start_instr = state.interval_start_instr
        interval_start_cycle = state.interval_start_cycle
        interval_branches = state.interval_branches
        interval_mispredicts = state.interval_mispredicts

        # The trace runs in interval-sized chunks: the legacy
        # ">= interval_size" check fires exactly at equality (the
        # counter advances by one per event), so every interval
        # boundary is known up front and the inner loop carries no
        # per-event interval test at all. Without intervals there is
        # exactly one chunk spanning the whole segment. (The two-space
        # indent keeps the 200-line hot body one edit away from its
        # single-loop form.)
        n_events = len(flags_col)
        if interval_size is None:
            isz = 0
            interval_next = None
        else:
            isz = interval_size if interval_size >= 1 else 1
            interval_next = state.interval_next
            if interval_next is None:
                interval_next = isz

        i = 0
        while i < n_events:
          if interval_next is None:
              chunk_end = n_events
          else:
              chunk_end = interval_next - base
              if chunk_end > n_events:
                  chunk_end = n_events
          for i, flags in enumerate(flags_col[i:chunk_end], i):
            # ---- fetch ------------------------------------------------
            if fetched_this_cycle >= fetch_width:
                dispatch_base += 1
                fetched_this_cycle = 0
            fetched_this_cycle += 1
            dispatch = dispatch_base
            slot_free = window_commits[i]
            if slot_free > dispatch:
                dispatch = slot_free

            # ---- issue ------------------------------------------------
            s1, s2, s3, unit, latency, dst = event_meta[i]
            ready = reg_ready[s1]
            value = reg_ready[s2]
            if value > ready:
                ready = value
            value = reg_ready[s3]
            if value > ready:
                ready = value
            if ready > dispatch:
                wait_dep = ready
                limiter = _L_DEP
            else:
                wait_dep = dispatch
                limiter = _L_FETCH

            # Per-unit copies of the same issue logic, ordered by
            # event frequency. Each keeps its usage dict, bound .get,
            # capacity and full-cycle floor in dedicated locals.
            if unit == _FXU:
                cycle = wait_dep if wait_dep > fxu_floor else fxu_floor
                count = fxu_get(cycle, 0)
                while count >= fxu_capacity:
                    cycle += 1
                    count = fxu_get(cycle, 0)
                count += 1
                fxu_usage[cycle] = count
                if cycle > wait_dep:
                    limiter = 2
                issue = cycle
                if count >= fxu_capacity and cycle == fxu_floor:
                    fxu_floor += 1
                    while fxu_get(fxu_floor, 0) >= fxu_capacity:
                        fxu_floor += 1
            elif unit == _LSU:
                cycle = wait_dep if wait_dep > lsu_floor else lsu_floor
                count = lsu_get(cycle, 0)
                while count >= lsu_capacity:
                    cycle += 1
                    count = lsu_get(cycle, 0)
                count += 1
                lsu_usage[cycle] = count
                if cycle > wait_dep:
                    limiter = 3
                issue = cycle
                if count >= lsu_capacity and cycle == lsu_floor:
                    lsu_floor += 1
                    while lsu_get(lsu_floor, 0) >= lsu_capacity:
                        lsu_floor += 1
            elif unit == _BRU:
                cycle = wait_dep if wait_dep > bru_floor else bru_floor
                count = bru_get(cycle, 0)
                while count >= bru_capacity:
                    cycle += 1
                    count = bru_get(cycle, 0)
                count += 1
                bru_usage[cycle] = count
                if cycle > wait_dep:
                    limiter = 4
                issue = cycle
                if count >= bru_capacity and cycle == bru_floor:
                    bru_floor += 1
                    while bru_get(bru_floor, 0) >= bru_capacity:
                        bru_floor += 1
            elif unit == _NONE:
                issue = wait_dep
            else:
                # Non-pipelined op (multiply): unit code carries +4.
                # Needs its unit free for the whole occupancy; rare
                # enough that tuple indexing and a generic scan are
                # fine. The floor stays read-only here — skipping its
                # advance is safe (it only prunes fast-path probes).
                unit -= 4
                occupancy = occupancy_of[sids[i]]
                if unit == _FXU:
                    usage, usage_get = fxu_usage, fxu_get
                    capacity, floor = fxu_capacity, fxu_floor
                elif unit == _LSU:
                    usage, usage_get = lsu_usage, lsu_get
                    capacity, floor = lsu_capacity, lsu_floor
                else:
                    usage, usage_get = bru_usage, bru_get
                    capacity, floor = bru_capacity, bru_floor
                cycle = wait_dep if wait_dep > floor else floor
                while True:
                    for k in range(occupancy):
                        if usage_get(cycle + k, 0) >= capacity:
                            cycle += 1
                            break
                    else:
                        break
                for k in range(occupancy):
                    usage[cycle + k] = usage_get(cycle + k, 0) + 1
                if cycle > wait_dep:
                    limiter = unit + 2
                issue = cycle

            # ---- execute / control flow -------------------------------
            if flags:
                if flags & 24:  # F_LOAD | F_STORE
                    # Inlined L1DCache.access (LRU with MRU fast path).
                    line = (addresses[i] * WORD_BYTES) // cache_line_bytes
                    ways = cache_sets[line & cache_set_mask]
                    cache_accesses += 1
                    if flags & F_LOAD:
                        loads += 1
                        if line in ways:
                            if ways[-1] != line:
                                ways.remove(line)
                                ways.append(line)
                            latency = hit_latency
                        else:
                            cache_misses += 1
                            ways.append(line)
                            if len(ways) > cache_ways_n:
                                del ways[0]
                            latency = miss_latency
                            load_misses += 1
                            limiter = _L_CACHE
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
                complete = issue + latency
                reg_ready[dst] = complete

                if flags & F_BRANCH:
                    branches += 1
                    taken = (flags & F_TAKEN) != 0
                    if taken:
                        taken_branches += 1
                    mispredicted = False
                    if flags & F_COND:
                        conditional_branches += 1
                        if bp_update is not None:
                            mispredicted = bp_update(pcs[i], taken)
                        else:
                            # Inlined GsharePredictor.update. The
                            # history local is kept masked, so the
                            # index needs no second masking.
                            index = (pcs[i] ^ bp_history) & bp_mask
                            counter = bp_table[index]
                            if taken:
                                if counter < 3:
                                    bp_table[index] = counter + 1
                                bp_history = (
                                    (bp_history << 1) | 1
                                ) & bp_hmask
                                mispredicted = counter < 2
                            else:
                                if counter > 0:
                                    bp_table[index] = counter - 1
                                bp_history = (bp_history << 1) & bp_hmask
                                mispredicted = counter >= 2
                    if mispredicted:
                        direction_mispredictions += 1
                        interval_mispredicts += 1
                        # Full flush: refetch starts after resolution.
                        dispatch_base = complete + 1 + depth
                        fetched_this_cycle = 0
                    elif taken:
                        # The taken bubble subsumes the group end; a
                        # BTAC hit reduces a taken branch to an
                        # ordinary end-of-group.
                        next_pc = next_pcs[i]
                        if btac is not None:
                            # Inlined Btac.lookup: one slot probe,
                            # entry reused below for the update.
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
                                # Miss or forgone prediction: bubble.
                                dispatch_base += taken_penalty
                                fetched_this_cycle = 0
                                taken_bubbles += 1
                            elif predicted_nia == next_pc:
                                btac_correct += 1
                                fetched_this_cycle = fetch_width
                            else:
                                btac_incorrect += 1
                                target_mispredictions += 1
                                # Wrong target caught at decode: a
                                # deeper bubble, not an execute-time
                                # flush.
                                dispatch_base += wrong_target_penalty
                                fetched_this_cycle = 0
                            # Inlined Btac.update (training); only the
                            # allocate-on-miss path calls the method.
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
                            dispatch_base += taken_penalty
                            fetched_this_cycle = 0
                            taken_bubbles += 1
                    else:
                        # Not-taken branch still ends its dispatch
                        # group (POWER5 group-formation rule).
                        fetched_this_cycle = fetch_width
                    if taken or mispredicted:
                        block_start = next_pcs[i]
                    interval_branches += 1
            else:
                complete = issue + latency
                reg_ready[dst] = complete

            # ---- commit -----------------------------------------------
            if complete > last_commit:
                stall[limiter] += complete - last_commit
                last_commit = complete
                committed_this_cycle = 1
            else:
                committed_this_cycle += 1
                if committed_this_cycle > commit_width:
                    stall[limiter] += 1
                    last_commit += 1
                    committed_this_cycle = 1
            window_append(last_commit)

          # ---- chunk boundary (interval record) ---------------------
          i += 1
          if interval_next is not None and base + i == interval_next:
              intervals.append(
                  IntervalRecord(
                      start_instruction=interval_start_instr,
                      instructions=base + i - interval_start_instr,
                      cycles=max(1, last_commit - interval_start_cycle),
                      branches=interval_branches,
                      direction_mispredictions=interval_mispredicts,
                  )
              )
              interval_start_instr = base + i
              interval_start_cycle = last_commit
              interval_branches = 0
              interval_mispredicts = 0
              interval_next = interval_start_instr + isz

        # FXU-op counting moves out of the loop entirely: one C-speed
        # Counter pass over the sid column replaces a per-event test.
        fxu_ops = sum(
            count
            for sid, count in Counter(sids).items()
            if unit_of[sid] == _FXU
        )

        # Write the inlined predictor/cache state back (one conditional
        # update per segment, matching what the method calls would have
        # accumulated event by event). Non-gshare predictors ran their
        # own update() per branch, so their state is already current.
        if bp_update is None:
            predictor._history = bp_history
            predictor.predictions += conditional_branches
            predictor.mispredictions += direction_mispredictions
        cache_stats = cache.stats
        cache_stats.accesses += cache_accesses
        cache_stats.misses += cache_misses
        if btac is not None:
            btac_stats = btac.stats
            btac_stats.lookups += btac_lookups
            btac_stats.hits += btac_hits
            btac_stats.predictions += btac_predictions
            btac_stats.correct += btac_correct
            btac_stats.incorrect += btac_incorrect

        # Store the carried state back and fold this segment's deltas
        # into the stream totals. (reg_ready, the usage dicts, the
        # window log, stall and intervals were mutated in place.)
        state.fxu_floor = fxu_floor
        state.lsu_floor = lsu_floor
        state.bru_floor = bru_floor
        state.dispatch_base = dispatch_base
        state.fetched_this_cycle = fetched_this_cycle
        state.last_commit = last_commit
        state.committed_this_cycle = committed_this_cycle
        state.block_start = block_start
        state.instructions = base + n_events
        state.branches += branches
        state.conditional_branches += conditional_branches
        state.taken_branches += taken_branches
        state.direction_mispredictions += direction_mispredictions
        state.target_mispredictions += target_mispredictions
        state.taken_bubbles += taken_bubbles
        state.loads += loads
        state.stores += stores
        state.load_misses += load_misses
        state.fxu_ops += fxu_ops
        state.interval_start_instr = interval_start_instr
        state.interval_start_cycle = interval_start_cycle
        state.interval_branches = interval_branches
        state.interval_mispredicts = interval_mispredicts
        state.interval_next = interval_next


class _StreamState:
    """Uarch state carried across trace segments by the columnar loop.

    Everything the hot loop would otherwise keep in locals for the
    whole trace lives here between segments: the register scoreboard,
    per-unit issue-queue usage and floors, the in-flight window's
    commit-log tail, fetch/commit grouping, the BTAC block cursor,
    running counter totals, stall attribution and interval
    bookkeeping. :meth:`compact` bounds the carried footprint — it
    prunes issue-queue cycles that can no longer be probed (every
    future probe starts at ``dispatch_base`` or later, which is
    monotone non-decreasing) and trims the commit log to the last
    ``window`` entries (the only slots a future event can read).
    """

    __slots__ = (
        "reg_ready",
        "fxu_usage", "lsu_usage", "bru_usage",
        "fxu_floor", "lsu_floor", "bru_floor",
        "window_commits", "dispatch_base", "fetched_this_cycle",
        "last_commit", "committed_this_cycle", "block_start",
        "instructions", "branches", "conditional_branches",
        "taken_branches", "direction_mispredictions",
        "target_mispredictions", "taken_bubbles", "loads", "stores",
        "load_misses", "fxu_ops", "stall", "intervals",
        "interval_start_instr", "interval_start_cycle",
        "interval_branches", "interval_mispredicts", "interval_next",
        "_meta", "_meta_static",
    )

    def __init__(self, config: CoreConfig) -> None:
        self.reg_ready = [0] * 34
        self.fxu_usage: dict[int, int] = {}
        self.lsu_usage: dict[int, int] = {}
        self.bru_usage: dict[int, int] = {}
        self.fxu_floor = self.lsu_floor = self.bru_floor = 0
        self.window_commits = [0] * config.window
        self.dispatch_base = config.pipeline_depth
        self.fetched_this_cycle = 0
        self.last_commit = 0
        self.committed_this_cycle = 0
        self.block_start: int | None = None
        self.instructions = 0
        self.branches = 0
        self.conditional_branches = 0
        self.taken_branches = 0
        self.direction_mispredictions = 0
        self.target_mispredictions = 0
        self.taken_bubbles = 0
        self.loads = 0
        self.stores = 0
        self.load_misses = 0
        self.fxu_ops = 0
        self.stall = [0, 0, 0, 0, 0, 0]
        self.intervals: list[IntervalRecord] = []
        self.interval_start_instr = 0
        self.interval_start_cycle = 0
        self.interval_branches = 0
        self.interval_mispredicts = 0
        self.interval_next: int | None = None
        self._meta: list | None = None
        self._meta_static = None

    def compact(self, window: int) -> None:
        """Bound carried memory at a segment boundary."""
        horizon = self.dispatch_base
        for usage in (self.fxu_usage, self.lsu_usage, self.bru_usage):
            if usage:
                stale = [cycle for cycle in usage if cycle < horizon]
                for cycle in stale:
                    del usage[cycle]
        if len(self.window_commits) > window:
            del self.window_commits[:-window]


def simulate_trace(
    trace: Trace | list[TraceEvent],
    config: CoreConfig | None = None,
    interval_size: int | None = None,
) -> SimResult:
    """Fresh core, one trace: a one-config ``simulate_batched`` call.

    ``Core(config).simulate`` is the scalar reference it matches.
    """
    from repro.uarch.batched import simulate_batched

    return simulate_batched(
        trace, [config or CoreConfig()], interval_size
    ).results[0]
