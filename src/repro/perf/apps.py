"""End-to-end application drivers over the synthetic BioPerf inputs,
and the workloads of the extension experiments.

Each paper workload is split into ``prepare_*`` (input generation and
any setup the real tool does offline — e.g. Hmmer's models are prebuilt
Pfam files) and ``execute_*`` (the measured run). The Figure 1
experiment profiles only the execute phase, as gprof on the BioPerf
binaries effectively does (:func:`profile_app`); the tests assert the
paper's headline profile shape — a single dynamic-programming function
dominating each application.

The extension workloads live here too: Phylip's parsimony problem
(:func:`phylip_workload`, simulated per code variant by
:func:`parsimony_results`), parallel ssearch workers sharing one
database (:func:`parallel_ssearch_traces`, whose LLC study is
:func:`llc_sharing_study`) and the optimizer ablation's static counts
(:func:`optimizer_counts`).

:func:`profile_app`, :func:`parsimony_results`,
:func:`llc_sharing_study` and :func:`optimizer_counts` are cached
artifacts (:func:`repro.engine.engine.cached_numbers`): this module is
part of the simulation source digest, so editing it re-addresses them.
The bio layer, numpy, the interpreter, the kernels and the compiler are
imported by the functions that compute, so a run that reads these
artifacts from the cache loads none of them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError, WorkloadError
from repro.isa.trace import Trace
from repro.perf.profiler import ProfileReport, Profiler
from repro.uarch.config import CoreConfig
from repro.uarch.core import SimResult, simulate_trace
from repro.uarch.llc import LlcConfig, SharingStudy, sharing_study

if TYPE_CHECKING:
    from repro.bio.sequence import Sequence

#: The applications, in the paper's order.
APPS = ("blast", "clustalw", "fasta", "hmmer")

#: Python reference function implementing each app's hot kernel.
KERNEL_REFERENCE_FUNCTIONS = {
    "blast": "xdrop_extend",
    "clustalw": "needleman_wunsch",
    "fasta": "smith_waterman_score",
    "hmmer": "viterbi_score",
}

#: The paper's (Figure 1) names for the same kernels.
KERNEL_PAPER_NAMES = {
    "blast": "SEMI_G_ALIGN_EX",
    "clustalw": "forward_pass",
    "fasta": "dropgsw",
    "hmmer": "P7Viterbi",
}


@dataclass(frozen=True)
class AppRunResult:
    """Coarse outcome of one application run (for sanity checks)."""

    app: str
    work_units: int  # hits / aligned sequences / models scored


def _load_apps() -> None:
    """Bind the four applications ``execute_*`` run as globals here.

    Every ``prepare_*`` calls this first. Figure 1 counts the lines
    ``execute_*`` runs, so an import there would enter its profile; an
    import at module level would load the bio layer, and numpy, into
    every run that reads Figure 1 from the cache.
    """
    global blastp, clustalw, hmmpfam, ssearch
    from repro.bio import blast, fastatool, hmmer, msa

    blastp, clustalw = blast.blastp, msa.clustalw
    hmmpfam, ssearch = hmmer.hmmpfam, fastatool.ssearch


def prepare_blast(input_class: str = "A", seed: int = 7):
    """Query + indexed database (index building is setup, like formatdb)."""
    from repro.bio.blast import BlastDatabase
    from repro.bio.workloads import blast_input

    _load_apps()
    data = blast_input(input_class, seed=seed)
    return data.query, BlastDatabase(data.database)


def execute_blast(prepared) -> AppRunResult:
    query, database = prepared
    hits = blastp(query, database)
    return AppRunResult("blast", len(hits))


def prepare_clustalw(input_class: str = "A", seed: int = 11):
    from repro.bio.workloads import clustalw_input

    _load_apps()
    return clustalw_input(input_class, seed=seed).sequences


def execute_clustalw(prepared) -> AppRunResult:
    msa = clustalw(prepared)
    return AppRunResult("clustalw", len(msa.rows))


def prepare_fasta(input_class: str = "A", seed: int = 13):
    from repro.bio.workloads import fasta_input

    _load_apps()
    data = fasta_input(input_class, seed=seed)
    return data.query, data.database


def execute_fasta(prepared) -> AppRunResult:
    query, database = prepared
    hits = ssearch(query, database)
    return AppRunResult("fasta", len(hits))


def prepare_hmmer(input_class: str = "A", seed: int = 17):
    """Build the model database (Pfam models are prebuilt in reality)."""
    from repro.bio.alphabet import PROTEIN
    from repro.bio.hmm import build_hmm
    from repro.bio.workloads import hmmer_input

    _load_apps()
    data = hmmer_input(input_class, seed=seed)
    models = []
    for family in data.families:
        msa = clustalw(family)
        models.append(
            build_hmm(family[0].id.split("_")[0], list(msa.rows), PROTEIN)
        )
    return data.query, models


def execute_hmmer(prepared) -> AppRunResult:
    query, models = prepared
    hits = hmmpfam(query, models)
    return AppRunResult("hmmer", len(hits))


#: (prepare, execute) pairs per application.
APP_PHASES: dict[str, tuple[Callable[..., Any], Callable[[Any], AppRunResult]]] = {
    "blast": (prepare_blast, execute_blast),
    "clustalw": (prepare_clustalw, execute_clustalw),
    "fasta": (prepare_fasta, execute_fasta),
    "hmmer": (prepare_hmmer, execute_hmmer),
}


def run_app(app: str, input_class: str = "A") -> AppRunResult:
    """Prepare and execute one application end to end."""
    prepare, execute = APP_PHASES[app]
    return execute(prepare(input_class))


def profile_app(app: str, input_class: str = "A") -> ProfileReport:
    """Figure 1's line profile of one application's execute phase.

    A cached artifact. Line counts follow the Python minor version's
    line tables, so the version is part of its key.
    """
    from repro.engine.engine import cached_numbers

    prepare, execute = APP_PHASES[app]

    def compute() -> ProfileReport:
        _, report = Profiler().run(execute, prepare(input_class))
        return report

    return cached_numbers(
        app, "~profile", compute,
        ProfileReport.to_payload, ProfileReport.from_payload,
        input_class=input_class, python=list(sys.version_info[:2]),
    )


def phylip_workload():
    """A parsimony workload: aligned family, its guide tree, alphabet."""
    import numpy as np

    from repro.bio.guidetree import upgma
    from repro.bio.msa import clustalw, pairwise_distance_matrix
    from repro.bio.workloads import make_family

    family = make_family("phylip", 10, 60, 0.3, seed=71)
    msa = clustalw(family)
    tree = upgma(
        np.asarray(pairwise_distance_matrix(family, method="ktuple"))
    )
    return tree, list(msa.rows), family[0].alphabet.symbols


def parsimony_results(
    variants: list[str], config: CoreConfig
) -> dict[str, SimResult]:
    """Each parsimony kernel variant's trace simulated under ``config``.

    A variant's score must equal :func:`repro.bio.phylo.fitch_score`
    before its trace is simulated; a diverged kernel raises
    :class:`~repro.errors.SimulationError` naming the variant, and
    nothing is stored. A cached artifact.
    """
    from repro.engine.digest import config_digest
    from repro.engine.engine import cached_numbers
    from repro.engine.serialize import result_from_dict, result_to_dict

    def compute() -> dict[str, SimResult]:
        from repro.bio.phylo import fitch_score
        from repro.kernels import parsimony

        tree, rows, symbols = phylip_workload()
        reference = fitch_score(tree, rows, symbols)
        results = {}
        for variant in variants:
            trace = Trace()
            score = parsimony.run(variant, tree, rows, symbols, trace=trace)
            if score != reference:
                raise SimulationError(
                    f"parsimony {variant} scored {score}, but fitch_score "
                    f"gives {reference}: kernel semantics diverged"
                )
            results[variant] = simulate_trace(trace, config)
        return results

    return cached_numbers(
        "phylip", "~parsimony", compute,
        lambda results: {
            variant: result_to_dict(result)
            for variant, result in results.items()
        },
        lambda payload: {
            variant: result_from_dict(payload[variant])
            for variant in variants
        },
        variants=list(variants), config=config_digest(config),
    )


def worker_trace(
    worker_index: int,
    query: Sequence,
    subjects: list[Sequence],
    pad_words: int = 4_096,
) -> Trace:
    """One ssearch worker's dropgsw trace over the shared database.

    The substitution matrix and every subject are allocated first, so
    their addresses are identical for every worker; a worker-specific
    pad displaces the private query and DP rows.
    """
    from repro.bio.scoring import BLOSUM62
    from repro.isa.interpreter import run_program
    from repro.isa.memory import Memory
    from repro.kernels import smith_waterman
    from repro.kernels.runtime import KERNEL_NEG_INF
    from repro.perf.characterize import kernel_gaps

    if not subjects:
        raise WorkloadError("need database subjects")
    gaps = kernel_gaps()
    config = smith_waterman.SwConfig(
        alphabet_size=len(BLOSUM62.alphabet),
        open_cost=gaps.open_ + gaps.extend,
        extend_cost=gaps.extend,
    )
    kernel = smith_waterman.HARNESS.compiled("baseline", config)
    max_n = max(len(s) for s in subjects)

    memory = Memory(1 << 18)
    sub_base = memory.alloc(
        "sub", [int(x) for x in BLOSUM62.scores.reshape(-1)]
    )
    subject_bases = [
        memory.alloc(f"subject{i}", list(s.codes))
        for i, s in enumerate(subjects)
    ]
    memory.alloc("pad", pad_words * worker_index + 1)
    a_base = memory.alloc("a", list(query.codes))
    v_base = memory.alloc("v", max_n + 1)
    f_base = memory.alloc("f", max_n + 1)
    out_base = memory.alloc("out", 1)

    trace = Trace()
    for subject, b_base in zip(subjects, subject_bases):
        n = len(subject)
        for j in range(n + 1):
            memory.store(v_base + j, 0)
            memory.store(f_base + j, KERNEL_NEG_INF)
        initial = {
            kernel.gpr("m"): len(query),
            kernel.gpr("n"): n,
            kernel.gpr("a"): a_base,
            kernel.gpr("b"): b_base,
            kernel.gpr("sub"): sub_base,
            kernel.gpr("v"): v_base,
            kernel.gpr("f"): f_base,
            kernel.gpr("out"): out_base,
        }
        run_program(kernel.program, memory, initial, trace=trace)
    return trace


def parallel_ssearch_traces(
    workers: int = 4,
    subjects_count: int = 6,
    subject_length: int = 72,
    query_length: int = 48,
    seed: int = 83,
) -> list[Trace]:
    """Traces for ``workers`` ssearch workers over one shared database."""
    from repro.bio.sequence import Sequence
    from repro.bio.workloads import make_family, mutate

    family = make_family(
        "db", subjects_count, subject_length, 0.3, seed=seed
    )
    queries = [
        Sequence(
            f"q{worker}",
            mutate(family[worker % len(family)], f"q{worker}", 0.4,
                   rng=None).residues[:query_length],
        )
        for worker in range(workers)
    ]
    return [
        worker_trace(worker, queries[worker], family)
        for worker in range(workers)
    ]


def llc_sharing_study(workers: int, config: LlcConfig) -> SharingStudy:
    """Shared vs private LLC misses of ``workers`` parallel ssearch
    workers. A cached artifact."""
    from repro.engine.digest import config_digest
    from repro.engine.engine import cached_numbers

    return cached_numbers(
        "fasta", "~llc",
        lambda: sharing_study(parallel_ssearch_traces(workers), config),
        SharingStudy.to_payload, SharingStudy.from_payload,
        workers=workers, config=config_digest(config),
    )


def optimizer_counts(app: str) -> tuple[int, int, int, int]:
    """Static counts behind the optimizer ablation for ``app``'s kernel.

    The kernel's baseline IR is if-converted to ``isel`` as authored and
    after the scalar optimizer: ``(instructions, instructions with
    optimize, sites converted, sites converted with optimize)``, under
    :func:`repro.kernels.representative_config`. A cached artifact,
    decoded only as four non-negative integers.
    """
    from repro.engine.engine import cached_numbers

    def compute() -> tuple[int, int, int, int]:
        from repro.compiler.codegen import compile_function
        from repro.compiler.ifconversion import if_convert
        from repro.compiler.optimize import optimize
        from repro.kernels import KERNELS_BY_APP, representative_config

        baseline = KERNELS_BY_APP[app].build(
            "baseline", representative_config(app)
        )
        plain = if_convert(baseline, "isel")
        optimised = if_convert(optimize(baseline), "isel")
        return (
            len(compile_function(plain.function).program),
            len(compile_function(optimised.function).program),
            sum(1 for d in plain.decisions if d.converted),
            sum(1 for d in optimised.decisions if d.converted),
        )

    def decode(payload) -> tuple[int, int, int, int]:
        counts = tuple(payload)
        if len(counts) != 4 or not all(
            type(n) is int and n >= 0 for n in counts
        ):
            raise ValueError(f"not four non-negative integers: {payload!r}")
        return counts

    return cached_numbers(app, "~optimizer", compute, list, decode)
