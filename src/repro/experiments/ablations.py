"""Ablations of the design decisions DESIGN.md calls out.

The paper fixes several design points without exploring them ("beyond
the scope of this paper", §V); these ablations explore them on our
model, using the Fasta workload (the most branch-dense of the four):

* **BTAC size** — 2/4/8/16/32 entries: where does the paper's choice of
  8 sit on the size/benefit curve?
* **BTAC confidence threshold** — predict-always (0) vs the
  score-guarded thresholds: why the score field exists.
* **Direction predictor** — the gshare history length: value-dependent
  DP branches should be insensitive to it (the paper's premise that a
  better predictor would not help).
* **Separate vs interleaved composition** — how much cross-phase
  predictor/BTAC/cache interference the separate-component default
  ignores.
* **SMT taken-branch penalty** — the paper notes the bubble grows to 3
  cycles with SMT enabled; how much worse is that, and how much of it
  does the BTAC recover?
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import ExperimentResult, cached_characterize
from repro.perf.apps import optimizer_counts
from repro.perf.report import Table, percent, signed_percent
from repro.uarch.config import BtacConfig, PredictorSpec, power5

APP = "fasta"


def points():
    """Design points this driver needs (for engine prefetch/fan-out)."""
    base = power5()
    result = [(APP, "baseline", base)]
    for entries in (2, 4, 8, 16, 32):
        result.append(
            (APP, "baseline", base.with_btac(BtacConfig(entries=entries)))
        )
    for threshold in (0, 1, 2, 3):
        result.append(
            (APP, "baseline",
             base.with_btac(BtacConfig(score_threshold=threshold)))
        )
    for history in (0, 4, 10, 12):
        result.append((
            APP, "baseline",
            replace(base, predictor=PredictorSpec(
                table_bits=12, history_bits=history)),
        ))
    for app in ("blast", "clustalw", "fasta", "hmmer"):
        result.append((app, "baseline", base))
        result.append((app, "baseline", base.with_smt()))
        result.append((app, "baseline", base.with_smt().with_btac()))
    return result


def btac_size_sweep() -> Table:
    base = power5()
    reference = cached_characterize(APP, "baseline", base)
    table = Table(
        f"Ablation - BTAC entries ({APP}, baseline code)",
        ["Entries", "Improvement", "BTAC mispredict"],
    )
    for entries in (2, 4, 8, 16, 32):
        config = base.with_btac(BtacConfig(entries=entries))
        result = cached_characterize(APP, "baseline", config)
        table.add_row(
            entries,
            signed_percent(result.speedup_over(reference)),
            percent(result.merged.btac.misprediction_rate, 2),
        )
    return table


def btac_threshold_sweep() -> Table:
    base = power5()
    reference = cached_characterize(APP, "baseline", base)
    table = Table(
        f"Ablation - BTAC confidence threshold ({APP}, baseline code)",
        ["Threshold", "Improvement", "BTAC mispredict"],
    )
    for threshold in (0, 1, 2, 3):
        config = base.with_btac(BtacConfig(score_threshold=threshold))
        result = cached_characterize(APP, "baseline", config)
        table.add_row(
            threshold,
            signed_percent(result.speedup_over(reference)),
            percent(result.merged.btac.misprediction_rate, 2),
        )
    return table


def predictor_sweep() -> Table:
    base = power5()
    table = Table(
        f"Ablation - gshare history bits ({APP}, baseline code)",
        ["History bits", "IPC", "Branch mispredict rate"],
    )
    for history in (0, 4, 10, 12):
        config = replace(
            base,
            predictor=PredictorSpec(table_bits=12, history_bits=history),
        )
        result = cached_characterize(APP, "baseline", config)
        table.add_row(
            history,
            f"{result.ipc:.2f}",
            percent(result.merged.branch_mispredict_rate),
        )
    return table


def smt_penalty() -> Table:
    base = power5()
    table = Table(
        "Ablation - SMT-mode 3-cycle taken bubble (all apps, baseline "
        "code)",
        ["App", "SMT slowdown", "BTAC recovers"],
    )
    for app in ("blast", "clustalw", "fasta", "hmmer"):
        st_result = cached_characterize(app, "baseline", base)
        smt_config = base.with_smt()
        smt_result = cached_characterize(app, "baseline", smt_config)
        smt_btac = cached_characterize(
            app, "baseline", smt_config.with_btac()
        )
        slowdown = smt_result.cycles / st_result.cycles - 1
        recovered = smt_btac.speedup_over(smt_result)
        table.add_row(
            app, signed_percent(slowdown), signed_percent(recovered)
        )
    return table


def interleaving() -> Table:
    """Separate-component vs interleaved composite simulation.

    The default harness simulates kernel and background on separate
    cores; the interleaved mode runs one alternating stream so the
    predictor/BTAC/cache see cross-phase interference. The delta bounds
    how much that modelling choice matters.
    """
    from repro.perf.characterize import interleaved_result

    base = power5()
    table = Table(
        "Ablation - separate vs interleaved composite simulation",
        ["App", "Separate IPC", "Interleaved IPC", "Delta"],
    )
    for app in ("blast", "clustalw", "fasta", "hmmer"):
        separate = cached_characterize(app, "baseline", base)
        mixed = interleaved_result(app, "baseline", base)
        delta = mixed.ipc / separate.ipc - 1
        table.add_row(
            app,
            f"{separate.ipc:.2f}",
            f"{mixed.ipc:.2f}",
            signed_percent(delta),
        )
    return table


def optimizer_effect() -> Table:
    """Scalar optimisation ahead of if-conversion, per kernel.

    The compiler variants run if-conversion directly on the authored
    IR; a real gcc would fold/propagate/DCE first. This ablation
    measures how much that matters: static instruction counts of
    ``if_convert(baseline)`` vs ``if_convert(optimize(baseline))`` and
    whether the extra passes unlock more conversions
    (:func:`repro.perf.apps.optimizer_counts`, a cached artifact).
    """
    table = Table(
        "Ablation - scalar optimisation before if-conversion "
        "(static counts)",
        ["Kernel", "comp_isel instrs", "+optimize instrs",
         "sites converted", "sites (+opt)"],
    )
    for app in ("blast", "clustalw", "fasta", "hmmer"):
        table.add_row(app, *optimizer_counts(app))
    return table


def run() -> ExperimentResult:
    """Run all six ablations."""
    tables = [
        btac_size_sweep(),
        btac_threshold_sweep(),
        predictor_sweep(),
        smt_penalty(),
        interleaving(),
        optimizer_effect(),
    ]
    return ExperimentResult(
        experiment="ablations",
        description="design-decision sweeps the paper left unexplored",
        tables=tables,
        data={},
    )
