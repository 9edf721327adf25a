"""Figure 1: function-wise runtime breakout (gprof-style).

Each application's execute phase runs under the line-counting profiler
(:func:`repro.perf.apps.profile_app`, a cached artifact); the table
reports the top functions by their share of executed lines. The
paper's finding — one dynamic-programming function dominating each
application — should be visible as the kernel reference function
leading each breakout.
"""

from __future__ import annotations

from repro.experiments.common import APPS, ExperimentResult
from repro.perf.apps import (
    KERNEL_PAPER_NAMES,
    KERNEL_REFERENCE_FUNCTIONS,
    profile_app,
)
from repro.perf.report import Table, percent


#: Input class per application. Clustalw and Blast need the larger
#: class so the O(n^2) pairwise stage / the extension stage dominate,
#: as they do on BioPerf's real class-C inputs.
DEFAULT_CLASSES = {"blast": "B", "clustalw": "B", "fasta": "A", "hmmer": "A"}


def run(
    input_classes: dict[str, str] | None = None, top: int = 4
) -> ExperimentResult:
    """Profile every application and report its top functions."""
    input_classes = input_classes or DEFAULT_CLASSES
    table = Table(
        "Figure 1 - Function-wise breakout (share of executed lines)",
        ["App", "Rank", "Function", "Share", "Paper kernel name"],
    )
    data: dict[str, dict] = {}
    for app in APPS:
        report = profile_app(app, input_classes.get(app, "A"))
        kernel_function = KERNEL_REFERENCE_FUNCTIONS[app]
        data[app] = {
            "kernel_share": report.share(kernel_function),
            "top": [
                (f.name, f.share_of(report.total_lines))
                for f in report.top(top)
            ],
        }
        for rank, function in enumerate(report.top(top), start=1):
            paper_name = (
                KERNEL_PAPER_NAMES[app]
                if function.name == kernel_function
                else ""
            )
            table.add_row(
                app if rank == 1 else "",
                rank,
                function.name,
                percent(function.share_of(report.total_lines)),
                paper_name,
            )
    return ExperimentResult(
        experiment="fig1",
        description="function-wise runtime breakout per application",
        tables=[table],
        data=data,
    )
