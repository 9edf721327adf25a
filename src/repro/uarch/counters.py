"""PMU-style hardware counter groups.

The POWER5 exposes 140 counter groups of six events each (§III); this
module provides the same *interface shape* over :class:`SimResult` so
the characterisation code reads like performance-counter collection:
select a group, read six named counters.

Only the groups the paper actually uses are defined; adding more is a
table entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.uarch.result import SimResult

#: Counter-group definitions: name -> six (event name, extractor) pairs.
_GROUPS: dict[str, list[str]] = {
    # Group 1: completion / cycle accounting
    "completion": [
        "PM_INST_CMPL", "PM_CYC", "PM_GRP_CMPL", "PM_STALL_FXU",
        "PM_STALL_LSU", "PM_STALL_FETCH",
    ],
    # Group 2: branch behaviour
    "branches": [
        "PM_BR_ISSUED", "PM_BR_CONDITIONAL", "PM_BR_TAKEN",
        "PM_BR_MPRED_DIR", "PM_BR_MPRED_TA", "PM_BR_BUBBLE",
    ],
    # Group 3: L1D behaviour
    "data_cache": [
        "PM_LD_REF_L1", "PM_LD_MISS_L1", "PM_ST_REF_L1",
        "PM_LSU_BUSY", "PM_DATA_FROM_L2", "PM_INST_CMPL",
    ],
}


def counter_groups() -> list[str]:
    """Names of the defined counter groups."""
    return sorted(_GROUPS)


def _extract(result: SimResult, event: str) -> int:
    mapping = {
        "PM_INST_CMPL": result.instructions,
        "PM_CYC": result.cycles,
        "PM_GRP_CMPL": result.instructions // 5,
        "PM_STALL_FXU": result.stall_cycles.get("fxu", 0),
        "PM_STALL_LSU": result.stall_cycles.get("lsu", 0),
        "PM_STALL_FETCH": result.stall_cycles.get("fetch", 0),
        "PM_BR_ISSUED": result.branches,
        "PM_BR_CONDITIONAL": result.conditional_branches,
        "PM_BR_TAKEN": result.taken_branches,
        "PM_BR_MPRED_DIR": result.direction_mispredictions,
        "PM_BR_MPRED_TA": result.target_mispredictions,
        "PM_BR_BUBBLE": result.taken_bubbles,
        "PM_LD_REF_L1": result.loads,
        "PM_LD_MISS_L1": result.load_misses,
        "PM_ST_REF_L1": result.stores,
        "PM_LSU_BUSY": result.loads + result.stores,
        "PM_DATA_FROM_L2": result.load_misses,
    }
    if event not in mapping:
        raise SimulationError(f"unknown PMU event {event!r}")
    return mapping[event]


@dataclass(frozen=True)
class CounterGroup:
    """One sampled counter group: six event name -> value pairs."""

    name: str
    values: tuple[tuple[str, int], ...]

    def __getitem__(self, event: str) -> int:
        for name, value in self.values:
            if name == event:
                return value
        raise SimulationError(
            f"event {event!r} is not in group {self.name!r}"
        )


def read_group(result: SimResult, group: str) -> CounterGroup:
    """Read one counter group from a finished simulation."""
    if group not in _GROUPS:
        raise SimulationError(
            f"unknown counter group {group!r}; have {counter_groups()}"
        )
    values = tuple(
        (event, _extract(result, event)) for event in _GROUPS[group]
    )
    return CounterGroup(group, values)


def derived_metrics(result: SimResult) -> dict[str, float]:
    """The Table I metrics, derived exactly as from real PMU data."""
    completion = read_group(result, "completion")
    branches = read_group(result, "branches")
    cache = read_group(result, "data_cache")
    total_mispredicts = (
        branches["PM_BR_MPRED_DIR"] + branches["PM_BR_MPRED_TA"]
    )
    references = cache["PM_LD_REF_L1"] + cache["PM_ST_REF_L1"]
    cycles = completion["PM_CYC"]

    # Empty denominators yield 0.0 — the same convention as
    # SimResult.ipc — rather than a silently shifted ratio from a
    # max(1, ...) floor or a ZeroDivisionError.
    def ratio(numerator: int, denominator: int) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "ipc": ratio(completion["PM_INST_CMPL"], cycles),
        "l1d_miss_rate": ratio(cache["PM_LD_MISS_L1"], references),
        "direction_share": ratio(
            branches["PM_BR_MPRED_DIR"], total_mispredicts
        ),
        "fxu_stall_fraction": ratio(completion["PM_STALL_FXU"], cycles),
    }
