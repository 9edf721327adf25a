"""Extension (§VII, ref. [26]): shared vs private LLC for parallel search.

The paper's related work cites the CMP study of Jaleel, Mattina and
Jacob: parallel bioinformatics workloads share their database data so
heavily that a *shared* last-level cache needs significantly less
off-chip bandwidth than private per-core caches. We reproduce the
experiment with our own machinery:

* the workload is parallel ssearch — several workers, each scanning
  the **same database** with a **different query**, exactly the
  parallelisation the original study ran;
* each worker's dynamic trace comes from the real ``dropgsw`` kernel,
  with the database and substitution matrix mapped at *identical*
  addresses across workers (shared data) and the query/DP rows at
  worker-private addresses;
* both LLC organisations (one shared cache vs equal-capacity private
  slices) consume the interleaved address streams, and miss traffic is
  the bandwidth proxy.

Expected shape: the private-to-shared miss ratio is well above 1.

The workers and the study live in :mod:`repro.perf.apps`
(:func:`~repro.perf.apps.llc_sharing_study`, a cached artifact).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.perf.apps import llc_sharing_study
from repro.perf.report import Table, percent
from repro.uarch.llc import LlcConfig


def run(workers: int = 4) -> ExperimentResult:
    """Compare shared and private LLC organisations on parallel ssearch."""
    # A small LLC relative to the database keeps the study in the
    # capacity-constrained regime the original paper targets.
    config = LlcConfig(total_size_bytes=16 * 1024, line_bytes=128, ways=8)
    study = llc_sharing_study(workers, config)

    table = Table(
        f"Extension - shared vs private LLC ({workers} parallel "
        "ssearch workers, one database)",
        ["Organisation", "Accesses", "Misses", "Miss rate"],
    )
    for result in (study.shared, study.private):
        table.add_row(
            result.organisation,
            result.accesses,
            result.misses,
            percent(result.miss_rate, 2),
        )
    summary = Table(
        "Off-chip bandwidth proxy (paper [26]: shared needs "
        "'significantly lower bandwidth')",
        ["Private/shared miss-traffic ratio"],
    ).add_row(f"{study.bandwidth_ratio:.2f}x")
    return ExperimentResult(
        experiment="ext_cmp_llc",
        description="data sharing favours a shared last-level cache",
        tables=[table, summary],
        data={
            "shared_misses": study.shared.misses,
            "private_misses": study.private.misses,
            "ratio": study.bandwidth_ratio,
        },
    )
