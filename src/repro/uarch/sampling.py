"""SMARTS-style uniform trace sampling (§V).

The paper boots SystemSim, fast-forwards in "turbo" mode, warms the
structures, and measures short windows at uniform intervals. The
trace-driven analogue:

* the *whole* trace streams through the branch predictor, BTAC and
  cache (functional warming — cheap);
* detailed timing statistics are collected only inside uniformly-spaced
  measurement windows.

Implemented by slicing the trace into ``(warm, measure)`` segment pairs
and resetting the core's statistics after each warm segment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.isa.trace import F_BRANCH, F_COND, F_TAKEN, NO_VALUE, Trace, TraceEvent
from repro.uarch.config import CoreConfig
from repro.uarch.result import SimResult

if TYPE_CHECKING:
    from repro.uarch.core import Core


@dataclass(frozen=True)
class SamplingPlan:
    """Uniform sampling parameters.

    ``window`` instructions are measured out of every ``period``; the
    first window starts after ``offset`` instructions.
    """

    period: int = 100_000
    window: int = 20_000
    offset: int = 0

    def __post_init__(self) -> None:
        if self.window <= 0 or self.period <= 0:
            raise SimulationError("window and period must be positive")
        if self.window > self.period:
            raise SimulationError("window cannot exceed the period")
        if self.offset < 0:
            raise SimulationError("offset must be non-negative")

    def windows(self, length: int) -> list[tuple[int, int]]:
        """Measurement windows (start, end) within a trace of ``length``."""
        spans = []
        start = self.offset
        while start < length:
            spans.append((start, min(length, start + self.window)))
            start += self.period
        return spans


def merge_results(results: list[SimResult]) -> SimResult:
    """Combine component results into whole-workload statistics.

    Interval records are re-based onto the merged instruction axis:
    each component's ``start_instruction`` values are offset by the
    instruction count of everything merged before it, so a plot over
    the merged intervals (Figure 2) has a monotonic time axis instead
    of every component restarting at zero.
    """
    merged = SimResult()
    stall: dict[str, int] = {}
    offset = 0
    for result in results:
        merged.instructions += result.instructions
        merged.cycles += result.cycles
        merged.branches += result.branches
        merged.conditional_branches += result.conditional_branches
        merged.taken_branches += result.taken_branches
        merged.direction_mispredictions += result.direction_mispredictions
        merged.target_mispredictions += result.target_mispredictions
        merged.taken_bubbles += result.taken_bubbles
        merged.loads += result.loads
        merged.stores += result.stores
        merged.load_misses += result.load_misses
        merged.fxu_ops += result.fxu_ops
        for key, value in result.stall_cycles.items():
            stall[key] = stall.get(key, 0) + value
        merged.cache.accesses += result.cache.accesses
        merged.cache.misses += result.cache.misses
        if result.btac is not None:
            if merged.btac is None:
                merged.btac = replace(result.btac)
            else:
                merged.btac.lookups += result.btac.lookups
                merged.btac.hits += result.btac.hits
                merged.btac.predictions += result.btac.predictions
                merged.btac.correct += result.btac.correct
                merged.btac.incorrect += result.btac.incorrect
                merged.btac.allocations += result.btac.allocations
        merged.intervals.extend(
            replace(
                record,
                start_instruction=record.start_instruction + offset,
            )
            for record in result.intervals
        )
        offset += result.instructions
    merged.stall_cycles = stall
    return merged


#: Events whose flags miss this mask touch no warmed structure at all.
_WARM_MASK = F_BRANCH | 8 | 16  # F_BRANCH | F_LOAD | F_STORE


def _warm(core: Core, segment: Trace | list[TraceEvent]) -> None:
    """Functional warming: update predictor/BTAC/cache, no timing."""
    if len(segment) == 0:
        return
    predictor_update = core.predictor.update
    btac = core.btac
    cache_access = core.cache.access
    if isinstance(segment, Trace):
        start, stop = segment._bounds()
        pcs = segment.pc
        flags_col = segment.flags
        next_pcs = segment.next_pc
        addresses = segment.address
        block_start = pcs[start]
        for i in range(start, stop):
            flags = flags_col[i]
            if not flags & _WARM_MASK:
                # Plain ALU op: nothing to warm. The single masked test
                # skips ~60-80% of a typical mix in one comparison.
                continue
            if flags & F_BRANCH:
                if flags & F_COND:
                    predictor_update(pcs[i], (flags & F_TAKEN) != 0)
                if flags & F_TAKEN:
                    next_pc = next_pcs[i]
                    if btac is not None:
                        btac.lookup(block_start)
                        btac.update(block_start, next_pc)
                    block_start = next_pc
            else:  # load or store
                address = addresses[i]
                if address != NO_VALUE:
                    cache_access(address)
        return
    block_start = segment[0].pc
    for event in segment:
        if event.is_conditional:
            predictor_update(event.pc, event.taken)
        if event.is_branch and event.taken:
            if btac is not None:
                btac.lookup(block_start)
                btac.update(block_start, event.next_pc)
            block_start = event.next_pc
        if (event.is_load or event.is_store) and event.address is not None:
            cache_access(event.address)


def simulate_sampled(
    trace: Trace | list[TraceEvent],
    config: CoreConfig | None = None,
    plan: SamplingPlan | None = None,
) -> SimResult:
    """Simulate ``trace`` under a uniform sampling plan.

    Equivalent (in expectation) to detailed simulation of the whole
    trace, at a fraction of the cost. With a plan whose window equals
    its period this degrades gracefully to full detailed simulation.
    Columnar traces are sliced into zero-copy views, so sampling adds
    no per-window copying.
    """
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    from repro.uarch.core import Core

    plan = plan or SamplingPlan()
    core = Core(config)
    results: list[SimResult] = []
    cursor = 0
    for start, end in plan.windows(len(trace)):
        if start > cursor:
            _warm(core, trace[cursor:start])
        core.reset_stats()
        results.append(core.simulate(trace[start:end]))
        cursor = end
    if not results:
        # Trace shorter than the offset: measure everything.
        results.append(core.simulate(trace))
    return merge_results(results)
