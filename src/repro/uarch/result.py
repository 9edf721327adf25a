"""What a simulation returns: :class:`SimResult` and its Figure 2
:class:`IntervalRecord` rows.

Every execution of the timing model — the batched replay, native or
Python, and the scalar :class:`~repro.uarch.core.Core` reference —
fills these types, and the engine rebuilds them from the cache. They
live apart from the execution code, so reading results back loads only
this module and the statistics types it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.uarch.btac import BtacStats
from repro.uarch.cache import CacheStats

#: Stall-limiter codes of the replay, in order, and their attribution
#: keys in :attr:`SimResult.stall_cycles`.
_LIMITERS = ("fetch", "dep", "fxu", "lsu", "bru", "cache")


@dataclass
class IntervalRecord:
    """Per-interval statistics for time-series plots (Figure 2)."""

    start_instruction: int
    instructions: int
    cycles: int
    branches: int
    direction_mispredictions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        if self.branches == 0:
            return 0.0
        return self.direction_mispredictions / self.branches


@dataclass
class SimResult:
    """Aggregate outcome of one simulation."""

    instructions: int = 0
    cycles: int = 0
    branches: int = 0
    conditional_branches: int = 0
    taken_branches: int = 0
    direction_mispredictions: int = 0
    target_mispredictions: int = 0
    taken_bubbles: int = 0
    loads: int = 0
    stores: int = 0
    load_misses: int = 0
    fxu_ops: int = 0
    stall_cycles: dict[str, int] = field(default_factory=dict)
    cache: CacheStats = field(default_factory=CacheStats)
    btac: BtacStats | None = None
    intervals: list[IntervalRecord] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def branch_mispredict_rate(self) -> float:
        """Mispredicted branches / all branches (Table II column 2)."""
        if self.branches == 0:
            return 0.0
        return (
            self.direction_mispredictions + self.target_mispredictions
        ) / self.branches

    @property
    def direction_share(self) -> float:
        """Fraction of mispredictions due to wrong direction (Table I)."""
        total = self.direction_mispredictions + self.target_mispredictions
        if total == 0:
            return 0.0
        return self.direction_mispredictions / total

    @property
    def branch_fraction(self) -> float:
        """Branches / instructions (Table II column 1)."""
        if self.instructions == 0:
            return 0.0
        return self.branches / self.instructions

    @property
    def taken_fraction(self) -> float:
        """Taken branches / branches (Table II column 3)."""
        if self.branches == 0:
            return 0.0
        return self.taken_branches / self.branches

    @property
    def fxu_stall_fraction(self) -> float:
        """FXU-attributed commit-stall cycles / total cycles (Table I)."""
        if self.cycles == 0:
            return 0.0
        return self.stall_cycles.get("fxu", 0) / self.cycles

    def cpi_stack(self) -> dict[str, float]:
        """Cycle-share attribution ("CPI stack").

        Returns each limiter's share of total cycles plus a ``busy``
        component for cycles in which commit proceeded without a gap;
        the shares sum to 1.0.
        """
        if self.cycles == 0:
            return {"busy": 0.0}
        stack = {
            key: value / self.cycles
            for key, value in self.stall_cycles.items()
            if value > 0
        }
        stack["busy"] = max(0.0, 1.0 - sum(stack.values()))
        return stack
