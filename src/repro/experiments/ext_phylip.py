"""Extension (§VIII): predication on Phylip's parsimony kernel.

The paper's conclusion claims its results extend to the phylogeny
application Phylip. This experiment runs the Fitch small-parsimony
kernel — whose hot conditional ``if ((l & r) == 0) {union; cost++}`` is
value-dependent but *not* a max idiom — through the same variant
pipeline and core model as the four BioPerf kernels.

Expected shape: the hypothetical ``max`` instruction is useless here
(hand_max == baseline), while ``isel`` — the general predication form —
removes essentially all kernel mispredictions; the compiler converts
the hammock on its own. This sharpens the paper's observation that
"isel is a more general solution that may be applied in more
situations than max".

The workload and its simulation live in :mod:`repro.perf.apps`
(:func:`~repro.perf.apps.parsimony_results`, a cached artifact stored
only after every variant's score matches ``fitch_score``).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.perf.apps import parsimony_results
from repro.perf.report import Table, percent, signed_percent
from repro.uarch.config import power5

VARIANTS = (
    "baseline", "hand_max", "hand_isel", "comp_max", "comp_isel",
    "combination",
)


def run() -> ExperimentResult:
    """Simulate every variant of the parsimony kernel."""
    results = parsimony_results(list(VARIANTS), power5())
    table = Table(
        "Extension - predication on Phylip's Fitch-parsimony kernel",
        ["Variant", "Instructions", "Cycles", "Mispredict rate",
         "Improvement"],
    )
    data: dict[str, float] = {}
    baseline_cycles = results["baseline"].cycles
    for variant in VARIANTS:
        result = results[variant]
        improvement = baseline_cycles / result.cycles - 1
        data[variant] = improvement
        table.add_row(
            variant,
            result.instructions,
            result.cycles,
            percent(result.branch_mispredict_rate),
            signed_percent(improvement),
        )
    return ExperimentResult(
        experiment="ext_phylip",
        description="the paper's SVIII claim, tested on a fifth kernel",
        tables=[table],
        data=data,
    )
