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
"""

from __future__ import annotations

import numpy as np

from repro.bio.guidetree import upgma
from repro.bio.msa import clustalw, pairwise_distance_matrix
from repro.bio.phylo import fitch_score
from repro.bio.workloads import make_family
from repro.errors import SimulationError
from repro.experiments.common import ExperimentResult
from repro.isa.trace import Trace
from repro.kernels import parsimony
from repro.perf.report import Table, percent, signed_percent
from repro.uarch.config import power5
from repro.uarch.core import simulate_trace

VARIANTS = (
    "baseline", "hand_max", "hand_isel", "comp_max", "comp_isel",
    "combination",
)


def _workload():
    """A parsimony workload: aligned family + its guide tree."""
    family = make_family("phylip", 10, 60, 0.3, seed=71)
    msa = clustalw(family)
    tree = upgma(
        np.asarray(pairwise_distance_matrix(family, method="ktuple"))
    )
    return tree, list(msa.rows), family[0].alphabet.symbols


def run() -> ExperimentResult:
    """Simulate every variant of the parsimony kernel."""
    tree, rows, symbols = _workload()
    reference = fitch_score(tree, rows, symbols)
    config = power5()

    table = Table(
        "Extension - predication on Phylip's Fitch-parsimony kernel",
        ["Variant", "Instructions", "Cycles", "Mispredict rate",
         "Improvement"],
    )
    data: dict[str, float] = {}
    baseline_cycles = None
    for variant in VARIANTS:
        trace = Trace()
        score = parsimony.run(variant, tree, rows, symbols, trace=trace)
        if score != reference:
            raise SimulationError(
                f"parsimony {variant} scored {score}, but fitch_score "
                f"gives {reference}: kernel semantics diverged"
            )
        result = simulate_trace(trace, config)
        if baseline_cycles is None:
            baseline_cycles = result.cycles
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
