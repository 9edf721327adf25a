"""Figure 2: Clustalw IPC and branch-misprediction rate over time.

Clustalw runs in phases — the pairwise ``forward_pass`` stage, guide
tree construction, then progressive alignment. We emulate that phase
structure by interleaving the Clustalw kernel trace with background
segments and simulating with interval statistics enabled
(:func:`repro.perf.characterize.phased_result`, a cached artifact): the
IPC series visibly tracks the branch-misprediction series, the paper's
headline observation from this figure.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.perf.characterize import phased_result
from repro.perf.report import Table, percent
from repro.uarch.config import power5


def run(interval_size: int = 8_000) -> ExperimentResult:
    """Simulate the phased Clustalw trace and report the time series."""
    result = phased_result(interval_size, power5())
    table = Table(
        "Figure 2 - Clustalw IPC and branch misprediction rate vs time",
        ["Interval", "Instructions", "IPC", "Branch mispredict rate"],
    )
    series = []
    for index, record in enumerate(result.intervals):
        table.add_row(
            index,
            record.start_instruction,
            f"{record.ipc:.2f}",
            percent(record.mispredict_rate),
        )
        series.append((record.ipc, record.mispredict_rate))
    return ExperimentResult(
        experiment="fig2",
        description="Clustalw IPC tracks the branch misprediction rate",
        tables=[table],
        data={"series": series, "overall_ipc": result.ipc},
    )


def ipc_tracks_mispredicts(series: list[tuple[float, float]]) -> float:
    """Pearson correlation between IPC and misprediction rate.

    The paper's claim is an *anti*-correlation: intervals with more
    mispredicted branches run at lower IPC.
    """
    n = len(series)
    if n < 2:
        return 0.0
    xs = [s[0] for s in series]
    ys = [s[1] for s in series]
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5
