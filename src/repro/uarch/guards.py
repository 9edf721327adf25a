"""Counter-consistency invariants for :class:`~repro.uarch.result.SimResult`.

A timing-model bug rarely crashes — it produces *numbers that cannot
be*: more mispredicted branches than branches, more committed loads
than instructions, a cycle count below what the commit width permits.
:func:`check_sim_result` asserts the closed set of inequalities the
model guarantees by construction, so a broken counter fails the run
with a structured :class:`~repro.errors.GuardError` naming the
violated invariant instead of silently skewing a table.

The checks are O(counters + intervals) — independent of trace length —
so they are cheap enough to leave on for a whole CI run
(``REPRO_GUARDS=1``; see :mod:`repro.guards`). :meth:`Core.simulate
<repro.uarch.core.Core.simulate>` calls this after every simulation
when the toggle is on.

Cross-component counters (cache, BTAC) persist across ``simulate``
calls on a reused :class:`~repro.uarch.core.Core` (SMARTS-style
functional warming), so only inequalities that survive accumulation
are asserted for them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import GuardError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.uarch.config import CoreConfig
    from repro.uarch.result import SimResult

#: Every plain counter that must be non-negative.
_COUNTERS = (
    "instructions",
    "cycles",
    "branches",
    "conditional_branches",
    "taken_branches",
    "direction_mispredictions",
    "target_mispredictions",
    "taken_bubbles",
    "loads",
    "stores",
    "load_misses",
    "fxu_ops",
)


def _trip(invariant: str, message: str, **context) -> GuardError:
    return GuardError(
        message,
        guard="uarch.invariant",
        context={"invariant": invariant, **context},
    )


def _require(condition: bool, invariant: str, message: str, **context) -> None:
    if not condition:
        raise _trip(invariant, message, **context)


def check_sim_result(result: "SimResult", config: "CoreConfig") -> None:
    """Raise :class:`GuardError` if ``result`` violates a model invariant.

    The invariants fall in four groups: counter domain (non-negative),
    counter hierarchy (a subset counter cannot exceed its superset),
    cycle accounting (the commit width bounds throughput; attributed
    stalls cannot exceed total cycles), and interval coherence (the
    time series must tile the instruction stream monotonically).
    """
    for name in _COUNTERS:
        value = getattr(result, name)
        _require(
            value >= 0, "non_negative",
            f"counter {name} is negative", counter=name, value=value,
        )

    instructions = result.instructions
    _require(
        result.branches <= instructions, "branches_le_instructions",
        "more branches than committed instructions",
        branches=result.branches, instructions=instructions,
    )
    _require(
        result.conditional_branches <= result.branches,
        "conditional_le_branches",
        "more conditional branches than branches",
        conditional=result.conditional_branches, branches=result.branches,
    )
    _require(
        result.taken_branches <= result.branches, "taken_le_branches",
        "more taken branches than branches",
        taken=result.taken_branches, branches=result.branches,
    )
    _require(
        result.direction_mispredictions <= result.conditional_branches,
        "direction_mispredicts_le_conditional",
        "more direction mispredictions than conditional branches",
        mispredictions=result.direction_mispredictions,
        conditional=result.conditional_branches,
    )
    _require(
        result.target_mispredictions <= result.taken_branches,
        "target_mispredicts_le_taken",
        "more target mispredictions than taken branches",
        mispredictions=result.target_mispredictions,
        taken=result.taken_branches,
    )
    _require(
        result.taken_bubbles <= result.taken_branches,
        "bubbles_le_taken",
        "more taken-branch bubbles than taken branches",
        bubbles=result.taken_bubbles, taken=result.taken_branches,
    )
    _require(
        result.loads + result.stores <= instructions,
        "memops_le_instructions",
        "more memory operations than committed instructions",
        loads=result.loads, stores=result.stores, instructions=instructions,
    )
    _require(
        result.load_misses <= result.loads, "misses_le_loads",
        "more load misses than loads",
        load_misses=result.load_misses, loads=result.loads,
    )
    _require(
        result.fxu_ops <= instructions, "fxu_le_instructions",
        "more FXU operations than committed instructions",
        fxu_ops=result.fxu_ops, instructions=instructions,
    )

    # Cycle accounting: at most commit_width commits per cycle, so the
    # cycle count has a hard floor; every attributed stall cycle must
    # fit inside the run.
    if instructions > 0:
        commit_width = config.commit_width
        floor = -(-instructions // commit_width)  # ceil division
        _require(
            result.cycles >= floor, "cycles_ge_commit_floor",
            "cycle count below the commit-width floor",
            cycles=result.cycles, instructions=instructions,
            commit_width=commit_width, floor=floor,
        )
    for key, value in result.stall_cycles.items():
        _require(
            value >= 0, "stall_non_negative",
            f"stall attribution {key!r} is negative", limiter=key,
            value=value,
        )
    attributed = sum(result.stall_cycles.values())
    _require(
        attributed <= result.cycles, "stalls_le_cycles",
        "attributed stall cycles exceed total cycles",
        attributed=attributed, cycles=result.cycles,
    )

    # Cache / BTAC statistics accumulate across simulate() calls on a
    # warmed core, so only accumulation-stable inequalities apply.
    cache = result.cache
    _require(
        0 <= cache.misses <= cache.accesses, "cache_misses_le_accesses",
        "cache misses exceed cache accesses",
        misses=cache.misses, accesses=cache.accesses,
    )
    _require(
        cache.accesses >= result.loads + result.stores,
        "cache_accesses_ge_memops",
        "cache accesses below this run's memory operations",
        accesses=cache.accesses, loads=result.loads, stores=result.stores,
    )
    btac = result.btac
    if btac is not None:
        _require(
            0 <= btac.hits <= btac.lookups, "btac_hits_le_lookups",
            "BTAC hits exceed lookups", hits=btac.hits,
            lookups=btac.lookups,
        )
        _require(
            btac.predictions <= btac.hits, "btac_predictions_le_hits",
            "BTAC predictions exceed hits", predictions=btac.predictions,
            hits=btac.hits,
        )
        _require(
            btac.correct + btac.incorrect <= btac.predictions,
            "btac_outcomes_le_predictions",
            "BTAC resolved outcomes exceed predictions",
            correct=btac.correct, incorrect=btac.incorrect,
            predictions=btac.predictions,
        )

    # Interval records must tile the committed stream monotonically.
    position = 0
    covered = 0
    for index, interval in enumerate(result.intervals):
        _require(
            interval.start_instruction == position,
            "interval_monotonic",
            "interval does not start where the previous one ended",
            index=index, start=interval.start_instruction,
            expected=position,
        )
        _require(
            interval.instructions > 0, "interval_non_empty",
            "interval covers no instructions", index=index,
        )
        _require(
            interval.cycles >= 1, "interval_cycles_positive",
            "interval has no cycles", index=index,
            cycles=interval.cycles,
        )
        _require(
            interval.direction_mispredictions <= interval.branches,
            "interval_mispredicts_le_branches",
            "interval mispredictions exceed its branches",
            index=index,
            mispredictions=interval.direction_mispredictions,
            branches=interval.branches,
        )
        position += interval.instructions
        covered += interval.instructions
    _require(
        covered <= instructions, "intervals_le_instructions",
        "intervals cover more instructions than were committed",
        covered=covered, instructions=instructions,
    )
