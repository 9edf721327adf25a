"""The benchmark's two workloads, the cold process behind them, and the
design-point grid.

Every measured process is one batch job run by a single fresh process
with ``--jobs 1``; the only other thread is the ``perf.stream``
producer, so a run uses two threads. Runs are a closed loop: each
process starts after the previous one exits. All ``REPRO_*`` variables
are removed, so the program's default paths (streaming, batching,
native replay) are the ones measured, and every process gets a private
cache and temp directory.

Why each workload was chosen
----------------------------

``warm-all``
    ``python -m repro.experiments all --jobs 1`` on the cache a cold
    ``all`` run leaves: a rerun after an experiment or report edit.
    Every engine point is a disk hit, so it measures result reads,
    imports, the trace decode the scheduler's prewarm pays although
    nothing is simulated, and above all the experiments the engine never
    caches (fig1, fig2, ext_cmp_llc, ext_phylip, the interleaving
    ablation), which run the interpreter, the scalar core, the LLC model
    and the profiler on every rerun.

``config-sweep``
    ``Engine(cache_dir=...).characterize_many(points, jobs=1)`` over
    4 apps x {baseline, combination} x {stock, +8-entry BTAC} x a
    12-config timing grid, on a primed trace store and an empty result
    store. This is design-space exploration, the mirror image of the
    cold run: the batched frontend pass and the native timing replay
    do the work, the interpreter and the scalar core do none. It goes
    through the engine as the experiments do (batching, cache, journal),
    not through ``perf.sweep.sweep``. The trace store is primed by
    copying the sweep's 12 traces out of the kept cold cache, not by
    regenerating them: generation belongs to the cold process, and
    regenerating per set-up (about 5 s each) would not fit the
    benchmark's time budget.

The cold process (``cold-all``)
    ``python -m repro.experiments all --jobs 1`` on an empty cache, the
    reproduction a developer waits for after any model edit. It is not a
    timed workload: one such process takes about 53 s on a 2-vCPU host,
    so a run could hold a single sample, and 22 runs of it would take a
    third of the benchmark's time budget, leaving too few samples per
    run for the other two. It runs once per source tree to build the
    cache both workloads start from, and once in every traced run, whose
    ``cold.*`` per-layer metrics give its layer breakdown: trace
    generation (interpreter, kernel traces, synthetic backgrounds),
    tracestore encode, the scalar core, branch-predictor replay and the
    accelerator estimates, which neither workload exercises.

Only ``config-sweep`` takes the seed. ``warm-all`` and the cold process
run the paper's fixed inputs, which the program itself defines.
"""

from __future__ import annotations

import random

COLD_ALL = "cold-all"
WARM_ALL = "warm-all"
CONFIG_SWEEP = "config-sweep"
WORKLOADS = (WARM_ALL, CONFIG_SWEEP)

#: Applications and code variants of the sweep grid.
SWEEP_APPS = ("blast", "clustalw", "fasta", "hmmer")
SWEEP_VARIANTS = ("baseline", "combination")

#: FXU counts and taken-branch penalties of the 4 x 3 timing grid. The
#: stock values (2 and 4 FXUs, a 2-cycle penalty) are always present so
#: every grid holds the Table I and Figure 6 points; the seed draws the
#: remaining values from these pools.
FIXED_FXUS = (2, 4)
FXU_POOL = (1, 3, 5, 6)
FIXED_PENALTIES = (2,)
PENALTY_POOL = (1, 3, 4, 5)


def timing_grid(seed: int) -> list[tuple[int, int]]:
    """The 12 (fxu_count, taken_branch_penalty) pairs for ``seed``."""
    rng = random.Random(seed)
    fxus = sorted(FIXED_FXUS + tuple(rng.sample(FXU_POOL, 2)))
    penalties = sorted(FIXED_PENALTIES + tuple(rng.sample(PENALTY_POOL, 2)))
    return [(fxu, penalty) for fxu in fxus for penalty in penalties]


def sweep_points(seed: int) -> list:
    """The ``config-sweep`` design points: 4 x 2 x 2 x 12 = 192."""
    from dataclasses import replace

    from repro.uarch.config import power5

    base = power5()
    points = []
    for app in SWEEP_APPS:
        for variant in SWEEP_VARIANTS:
            for frontend in (base, base.with_btac()):
                for fxus, penalty in timing_grid(seed):
                    config = replace(
                        frontend.with_fxus(fxus),
                        taken_branch_penalty=penalty,
                    )
                    points.append((app, variant, config))
    return points


def sample_points(seed: int, count: int = 2) -> list:
    """The seeded sample re-simulated through the scalar path."""
    points = sweep_points(seed)
    rng = random.Random(seed ^ 0x5EED)
    return [points[i] for i in sorted(rng.sample(range(len(points)), count))]
