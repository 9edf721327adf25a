"""Whole-application workload models for the simulation experiments.

The paper simulates whole applications (SystemSim + SMARTS sampling).
Our equivalent composes, per application:

* the **kernel trace** — the real mini-ISA kernel executing on real
  sequence data, regenerated per code variant (baseline / hand / comp /
  combination); and
* a **background trace** — a synthetic stream with the application's
  non-kernel statistical profile (branch density, footprint), identical
  across code variants because predication only touches the kernels.

The mixing ratio comes from the measured Figure 1 function breakout:
``kernel_weight`` is the fraction of dynamic instructions spent in the
hot kernel for the *baseline* build. The background length is derived
once from the baseline kernel length and then held fixed, so variants
are compared on constant work. Being fixed, the background also gives
the same result under one config for every variant:
:func:`characterize_batched` takes a ``backgrounds`` memo, which each
:class:`~repro.engine.engine.Engine` owns, and simulates the background
only for the configs that memo lacks.

Two experiments simulate whole-program orderings of the same two
traces instead: :func:`phased_result` (Figure 2's phase structure) and
:func:`interleaved_result` (the interleaving ablation). They are cached
artifacts (:func:`repro.engine.engine.cached_numbers`), keyed by their
parameters under the simulation source digest this module is part of.

``characterize(app, variant, config)`` returns a merged
:class:`~repro.uarch.core.SimResult`; ``work_cycles`` is the metric to
compare across variants (same work, fewer cycles = faster), and
``work_ipc`` normalises it to the paper's IPC presentation by dividing
the *baseline* instruction count by the variant's cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.isa.trace import Trace
from repro.uarch.config import CoreConfig, power5
from repro.uarch.core import Core, SimResult, simulate_trace
from repro.uarch.synthetic import (
    MixProfile, generate_trace, generate_trace_segments,
)

#: Code variants in the paper's Figure 3 order.
VARIANTS = (
    "baseline", "hand_isel", "hand_max", "comp_isel", "comp_max",
    "combination",
)


@dataclass(frozen=True)
class AppWorkload:
    """Static description of one application's composite workload."""

    name: str
    kernel_weight: float  # fraction of instructions in the hot kernel
    background: MixProfile
    seed: int


#: Non-kernel instruction profiles, calibrated so the composite lands on
#: Table I's characterisation (low L1D miss rates, Blast's the highest;
#: branch densities in Table II's neighbourhood).
APP_WORKLOADS = {
    "blast": AppWorkload(
        name="blast",
        kernel_weight=0.45,
        background=MixProfile(
            branch_fraction=0.20,
            hard_branch_share=0.15,
            indirect_share=0.05,
            load_fraction=0.26,
            store_fraction=0.06,
            mul_fraction=0.04,
            footprint_words=3_500,
            far_fraction=0.03,
        ),
        seed=101,
    ),
    "clustalw": AppWorkload(
        name="clustalw",
        kernel_weight=0.49,
        background=MixProfile(
            branch_fraction=0.11,
            hard_branch_share=0.10,
            indirect_share=0.05,
            load_fraction=0.20,
            store_fraction=0.08,
            mul_fraction=0.10,
            footprint_words=1_500,
            far_fraction=0.0005,
        ),
        seed=103,
    ),
    "fasta": AppWorkload(
        name="fasta",
        kernel_weight=0.40,
        background=MixProfile(
            branch_fraction=0.26,
            hard_branch_share=0.12,
            indirect_share=0.05,
            load_fraction=0.22,
            store_fraction=0.06,
            mul_fraction=0.02,
            footprint_words=3_000,
            far_fraction=0.016,
        ),
        seed=107,
    ),
    "hmmer": AppWorkload(
        name="hmmer",
        kernel_weight=0.62,
        background=MixProfile(
            branch_fraction=0.13,
            hard_branch_share=0.12,
            indirect_share=0.05,
            load_fraction=0.28,
            store_fraction=0.10,
            mul_fraction=0.06,
            footprint_words=3_000,
            far_fraction=0.025,
        ),
        seed=109,
    ),
}

_kernel_trace_cache: dict[tuple[str, str], Trace] = {}
_background_cache: dict[str, Trace] = {}


def kernel_gaps():
    """The gap penalties of the fasta and clustalw kernel traces."""
    from repro.bio.scoring import GapPenalties

    return GapPenalties(10, 2)


def _kernel_inputs(app: str):
    """Representative kernel inputs per application (deterministic)."""
    # The bio layer is imported where inputs are built, not at module
    # level: a run that reads every result from the cache never loads
    # it (or numpy, which it imports).
    from repro.bio.hmm import build_hmm
    from repro.bio.msa import clustalw
    from repro.bio.sequence import Sequence
    from repro.bio.workloads import make_family, mutate, random_sequence

    if app == "fasta":
        # Fasta's input is the longest of the four (§III).
        family = make_family("fa", 2, 84, 0.3, seed=31)
        return family[0], family[1]
    if app == "clustalw":
        family = make_family("cw", 2, 58, 0.3, seed=33)
        return family[0], family[1]
    if app == "blast":
        # A gapped extension sees a conserved core flanked by divergent
        # sequence: share a motif, randomise the rest. The X-drop prune
        # then fires value-dependently, exactly as in real extensions.
        motif = random_sequence("motif", 28, seed=36)
        left_a = random_sequence("la", 30, seed=37)
        right_a = random_sequence("ra", 34, seed=38)
        left_b = random_sequence("lb", 30, seed=39)
        right_b = random_sequence("rb", 34, seed=40)
        seq_a = Sequence(
            "ba", left_a.residues + motif.residues + right_a.residues
        )
        seq_b = Sequence(
            "bb", left_b.residues + mutate(motif, "m", 0.15).residues
            + right_b.residues
        )
        return seq_a, seq_b
    if app == "hmmer":
        # hmmpfam scans a query against *every* model; most models are
        # unrelated, so the Viterbi path churns unpredictably. One
        # related and one unrelated query capture both regimes.
        family = make_family("hm", 6, 40, 0.2, seed=41)
        msa = clustalw(family)
        model = build_hmm("hm", list(msa.rows), msa.sequences[0].alphabet)
        related = mutate(family[0], "q", 0.3)
        unrelated = random_sequence(
            "u", 44, msa.sequences[0].alphabet, seed=43
        )
        return model, (related, unrelated)
    raise WorkloadError(f"unknown application {app!r}")


def kernel_dimensions(app: str) -> tuple[tuple[int, int], ...]:
    """DP extents of the kernel inputs behind :func:`kernel_trace`.

    One ``(rows, cols)`` pair per DP problem the kernel solves — the
    sequence pair for the alignment kernels, ``(model states, query
    length)`` per query for hmmer. The accelerator layer
    (:mod:`repro.accel`) uses these to turn a characterised kernel's
    cycle count into a per-cell host cost, so CPU and offload estimates
    are calibrated from the *same* kernel inputs and traces. A cached
    artifact: hmmer's inputs take a Clustalw alignment and an HMM build.
    """
    from repro.engine.engine import cached_numbers

    def compute():
        if app == "hmmer":
            model, queries = _kernel_inputs(app)
            return tuple((model.length, len(query)) for query in queries)
        a, b = _kernel_inputs(app)
        return ((len(a), len(b)),)

    def decode(payload):
        dims = tuple(tuple(pair) for pair in payload)
        if not dims or not all(
            len(pair) == 2 and all(type(n) is int and n > 0 for n in pair)
            for pair in dims
        ):
            raise ValueError(f"not positive integer pairs: {payload!r}")
        return dims

    return cached_numbers(
        app, "~dims", compute, lambda dims: [list(p) for p in dims], decode,
    )


def kernel_cell_count(app: str) -> int:
    """Total DP cells the app's kernel inputs induce."""
    return sum(rows * cols for rows, cols in kernel_dimensions(app))


def _generate_kernel_trace(app: str, variant: str) -> Trace:
    """Interpret the app's kernel and collect its dynamic trace."""
    from repro.bio.scoring import BLOSUM62, GapPenalties
    from repro.kernels import (
        forward_pass, gapped_extend, smith_waterman, viterbi,
    )

    trace = Trace()
    if app == "fasta":
        a, b = _kernel_inputs(app)
        smith_waterman.run(variant, a, b, BLOSUM62, kernel_gaps(),
                           trace=trace)
    elif app == "clustalw":
        a, b = _kernel_inputs(app)
        forward_pass.run(variant, a, b, BLOSUM62, kernel_gaps(),
                         trace=trace)
    elif app == "blast":
        a, b = _kernel_inputs(app)
        gapped_extend.run(
            variant, a, b, BLOSUM62, GapPenalties(11, 1), trace=trace
        )
    elif app == "hmmer":
        model, queries = _kernel_inputs(app)
        for query in queries:
            viterbi.run(variant, model, query, trace=trace)
    else:
        raise WorkloadError(f"unknown application {app!r}")
    return trace


def kernel_trace(app: str, variant: str) -> Trace:
    """The app's kernel trace for one code variant.

    Cached in memory and — because traces are expensive to regenerate
    but cheap to re-simulate — in the engine's persistent trace store,
    keyed by the simulation-source digest so any code change
    regenerates them.
    """
    # Imported here: the engine cache sits above the perf layer.
    from repro.engine.cache import active_cache

    key = (app, variant)
    if key not in _kernel_trace_cache:
        cache = active_cache()
        events = cache.load_trace(app, variant)
        if events is None:
            events = _generate_kernel_trace(app, variant)
            cache.store_trace(app, variant, events)
        _kernel_trace_cache[key] = events
    return _kernel_trace_cache[key]


def _kernel_length(app: str) -> int:
    """Events in the app's baseline kernel trace: the count stored with
    the persisted trace when it is not in memory, so measuring decodes
    nothing; else (a miss, or the cache off) ``len(kernel_trace)``."""
    from repro.engine.cache import active_cache

    if (app, "baseline") not in _kernel_trace_cache:
        length = active_cache().trace_length(app, "baseline")
        if length is not None:
            return length
    return len(kernel_trace(app, "baseline"))


def _background_length(app: str) -> int:
    """Background event count: sized from the *baseline* kernel length
    so that the kernel carries ``kernel_weight`` of the baseline
    instructions."""
    workload = APP_WORKLOADS[app]
    return max(1_000, int(
        _kernel_length(app) * (1.0 - workload.kernel_weight)
        / workload.kernel_weight
    ))


def background_trace(app: str) -> Trace:
    """The app's fixed non-kernel trace (cached, persistently too)."""
    from repro.engine.cache import active_cache

    if app not in _background_cache:
        cache = active_cache()
        # "~background" cannot collide with a code-variant name.
        events = cache.load_trace(app, "~background")
        if events is None:
            workload = APP_WORKLOADS[app]
            events = generate_trace(
                _background_length(app), workload.background,
                seed=workload.seed,
            )
            cache.store_trace(app, "~background", events)
        _background_cache[app] = events
    return _background_cache[app]


def kernel_trace_segments(app: str, variant: str, segment_events=None):
    """Bounded-memory segment iterator over the app's kernel trace.

    Yields the identical event stream as :func:`kernel_trace`, in
    segments: an in-memory memo streams zero-copy views, a persistent
    v3 cache entry streams lazily frame by frame (never materialising
    the whole trace), and a cold cache generates once through
    :func:`kernel_trace` and then segments the result.
    """
    from repro.engine.cache import active_cache
    from repro.perf.stream import segment_events as resolve_segment_events

    size = resolve_segment_events(segment_events)
    key = (app, variant)
    if key in _kernel_trace_cache:
        return _kernel_trace_cache[key].segments(size)
    segments = active_cache().load_trace_segments(app, variant)
    if segments is not None:
        return segments
    return kernel_trace(app, variant).segments(size)


def background_trace_segments(app: str, segment_events=None):
    """Bounded-memory segment iterator over the app's background trace.

    Same stream as :func:`background_trace`; on a cold cache the
    synthetic generator itself runs segmented
    (:func:`~repro.uarch.synthetic.generate_trace_segments`), so the
    background never materialises. The cold stream is persisted on the
    way — segments are written to the v3 store as they are generated
    (still O(segment) live memory) and then served back through the
    lazy reader, so a cold streaming run populates the cache exactly
    like the monolithic loader does.
    """
    from repro.engine.cache import active_cache
    from repro.perf.stream import segment_events as resolve_segment_events

    size = resolve_segment_events(segment_events)
    if app in _background_cache:
        return _background_cache[app].segments(size)
    cache = active_cache()
    segments = cache.load_trace_segments(app, "~background")
    if segments is not None:
        return segments
    workload = APP_WORKLOADS[app]

    def generate():
        return generate_trace_segments(
            _background_length(app), workload.background,
            seed=workload.seed, segment_events=size,
        )

    if cache.enabled:
        cache.store_trace_segments(app, "~background", generate())
        segments = cache.load_trace_segments(app, "~background")
        if segments is not None:
            return segments
    return generate()


def background_stream(
    app: str, input_class: str = "C", segment_events=None
):
    """A class-scaled synthetic background stream (genome scale at D).

    The bounded-memory workload source for streaming benchmarks: the
    app's background profile, sized to ``input_class`` via
    :data:`repro.bio.workloads.CLASS_SCALES` — class D is ~4x class C,
    far past what a monolithic run wants resident. Returns
    ``(length, segment_iterator)``.
    """
    from repro.bio.workloads import CLASS_SCALES
    from repro.perf.stream import segment_events as resolve_segment_events

    if input_class not in CLASS_SCALES:
        raise WorkloadError(
            f"unknown input class {input_class!r}; expected one of "
            f"{sorted(CLASS_SCALES)}"
        )
    if app not in APP_WORKLOADS:
        raise WorkloadError(
            f"unknown application {app!r}; have {sorted(APP_WORKLOADS)}"
        )
    workload = APP_WORKLOADS[app]
    length = max(1_000, int(
        _background_length(app) * CLASS_SCALES[input_class]
    ))
    size = resolve_segment_events(segment_events)
    return length, generate_trace_segments(
        length, workload.background, seed=workload.seed,
        segment_events=size,
    )


def clear_trace_caches() -> None:
    """Drop the in-memory kernel/background trace memos (test isolation)."""
    _kernel_trace_cache.clear()
    _background_cache.clear()


def composite_trace(
    app: str, variant: str, chunk: int = 4_096
) -> Trace:
    """Kernel and background interleaved into one stream.

    Models the real program's alternation between kernel invocations
    and bookkeeping, so the branch predictor, BTAC and L1D experience
    cross-phase interference. Chunks are proportional to the two
    components' lengths. Chunks are zero-copy views; only the merged
    trace allocates.
    """
    kernel = kernel_trace(app, variant)
    background = background_trace(app)
    merged = Trace()
    if len(background) == 0:
        merged.extend(kernel)
        return merged
    ratio = len(background) / len(kernel)
    bg_chunk = max(1, int(chunk * ratio))
    kernel_pos = background_pos = 0
    while kernel_pos < len(kernel) or background_pos < len(background):
        merged.extend(kernel[kernel_pos : kernel_pos + chunk])
        kernel_pos += chunk
        merged.extend(background[background_pos : background_pos + bg_chunk])
        background_pos += bg_chunk
    return merged


def phased_trace() -> Trace:
    """Clustalw's phase structure as one interleaved trace (Figure 2).

    Background (input parsing) -> pairwise kernel -> background (guide
    tree) -> pairwise kernel (progressive stage re-enters the DP code)
    -> background (output).
    """
    kernel = kernel_trace("clustalw", "baseline")
    background = background_trace("clustalw")
    third = len(background) // 3
    half = len(kernel) // 2
    return (
        background[:third]
        + kernel[:half]
        + background[third : 2 * third]
        + kernel[half:]
        + background[2 * third :]
    )


def _cached_result(app: str, slot: str, compute, config: CoreConfig,
                   **params) -> SimResult:
    """``compute()``'s result under ``config``, as a cached artifact."""
    from repro.engine.digest import config_digest
    from repro.engine.engine import cached_numbers
    from repro.engine.serialize import result_from_dict, result_to_dict

    return cached_numbers(
        app, slot, compute, result_to_dict, result_from_dict,
        config=config_digest(config), **params,
    )


def phased_result(interval_size: int, config: CoreConfig) -> SimResult:
    """Figure 2's run: :func:`phased_trace` under ``config``, with an
    interval record every ``interval_size`` instructions. A cached
    artifact."""
    return _cached_result(
        "clustalw", "~phased",
        lambda: simulate_trace(phased_trace(), config, interval_size),
        config, interval_size=interval_size,
    )


def interleaved_result(app: str, variant: str,
                       config: CoreConfig) -> SimResult:
    """:func:`composite_trace` simulated as one stream under ``config``,
    so kernel and background interfere in the predictor, BTAC and L1D
    (the interleaving ablation). A cached artifact."""
    return _cached_result(
        app, f"{variant}~interleaved",
        lambda: simulate_trace(composite_trace(app, variant), config),
        config,
    )


@dataclass
class AppCharacterisation:
    """Composite simulation outcome for (app, variant, config).

    ``kernel`` and ``background`` hold the per-component results; a
    record built from a merged result alone carries None for both.
    """

    app: str
    variant: str
    kernel: SimResult | None
    background: SimResult | None
    merged: SimResult
    baseline_instructions: int

    @property
    def cycles(self) -> int:
        """Total cycles for this variant's constant-work run."""
        return self.merged.cycles

    @property
    def ipc(self) -> float:
        """Committed-instruction IPC (what PMU counters would report)."""
        return self.merged.ipc

    @property
    def work_ipc(self) -> float:
        """Baseline instructions / this variant's cycles.

        Constant-work IPC: the paper's Figure 3/6 metric, comparable
        across code variants because the numerator is fixed. An empty
        run (zero cycles) yields 0.0 — the same convention as
        :attr:`SimResult.ipc` and the PMU-derived metrics — rather
        than a ZeroDivisionError.
        """
        if self.cycles == 0:
            return 0.0
        return self.baseline_instructions / self.cycles

    def speedup_over(self, other: "AppCharacterisation") -> float:
        """Performance improvement of self vs ``other`` (same work).

        Zero-cycle runs follow the 0.0 convention of the derived
        metrics: no work measured means no speedup claim.
        """
        if self.cycles == 0:
            return 0.0
        return other.cycles / self.cycles - 1.0


def characterize(
    app: str,
    variant: str = "baseline",
    config: CoreConfig | None = None,
    stream: bool | None = None,
) -> AppCharacterisation:
    """Simulate one application/variant/core combination, scalar.

    The scalar reference for :func:`characterize_batched`, which the
    engine's production path runs: the kernel and background traces
    each go through a fresh :class:`~repro.uarch.core.Core` and the
    statistics are summed, so each component's numbers stay
    inspectable. Equality checks re-simulate through here to compare
    the production results against the scalar loop.

    ``stream`` (default: ``REPRO_STREAM``, on) drives each core through
    :meth:`~repro.uarch.core.Core.simulate_stream` over a pipelined
    segment iterator — trace decode/generation overlaps simulation on a
    producer thread and only a bounded window of segments is resident.
    Results are bit-identical either way.
    """
    if app not in APP_WORKLOADS:
        raise WorkloadError(
            f"unknown application {app!r}; have {sorted(APP_WORKLOADS)}"
        )
    if variant not in VARIANTS:
        raise WorkloadError(
            f"unknown variant {variant!r}; have {VARIANTS}"
        )
    config = config or power5()
    baseline_instructions = _kernel_length(app) + _background_length(app)
    from repro.perf.stream import pipelined, resolve_stream
    from repro.uarch.sampling import merge_results

    if resolve_stream(stream):
        kernel_result = Core(config).simulate_stream(
            pipelined(kernel_trace_segments(app, variant))
        )
        background_result = Core(config).simulate_stream(
            pipelined(background_trace_segments(app))
        )
    else:
        kernel_result = Core(config).simulate(kernel_trace(app, variant))
        background_result = Core(config).simulate(background_trace(app))
    merged = merge_results([kernel_result, background_result])
    return AppCharacterisation(
        app=app,
        variant=variant,
        kernel=kernel_result,
        background=background_result,
        merged=merged,
        baseline_instructions=baseline_instructions,
    )


def characterize_batched(
    app: str,
    variant: str,
    configs: list[CoreConfig],
    stream: bool | None = None,
    backgrounds: dict | None = None,
) -> tuple[list[AppCharacterisation], dict]:
    """Simulate one (app, variant) under many configs in one trace pass.

    The batched equivalent of calling :func:`characterize` once per
    config: the kernel and background traces are each decoded once and
    driven through :func:`repro.uarch.batched.simulate_batched`, which
    shares a single frontend pass per group of configs with equal
    frontend state (predictor spec, BTAC geometry, cache geometry) and
    replays only the cheap timing recurrence per config. Results are
    byte-identical to the scalar path — each config still sees fresh
    predictor/BTAC/cache state. One config is a valid batch: the
    engine simulates every point through here.

    ``stream`` (default: ``REPRO_STREAM``, on) drives the shared pass
    through :func:`repro.uarch.batched.simulate_batched_stream` over a
    pipelined segment iterator, so trace decode overlaps the frontend
    walk and the decoded trace never materialises; results stay
    byte-identical.

    ``backgrounds``, when given, is a memo of ``(app, config) ->
    (background SimResult, batched)`` entries. The background is the
    same for every code variant, so the call reads the configs it holds
    from it, simulates the others once each (in input order, one
    batched call) and adds them to it; a call the memo fully covers
    starts no background stream. Without a memo the call simulates the
    background of every distinct config it is given.

    Returns ``(characterisations, info)`` where ``info`` reports how
    many points took the shared-frontend path (``vectorized``) versus
    the scalar fallback for traces the packed encoding cannot represent
    (``fallback``), counting a reused background by how it was
    simulated, and whether the native kernel ran for any simulation the
    call made (``native``).
    """
    from repro.uarch.batched import simulate_batched, simulate_batched_stream
    from repro.uarch.sampling import merge_results

    if app not in APP_WORKLOADS:
        raise WorkloadError(
            f"unknown application {app!r}; have {sorted(APP_WORKLOADS)}"
        )
    if variant not in VARIANTS:
        raise WorkloadError(
            f"unknown variant {variant!r}; have {VARIANTS}"
        )
    configs = list(configs)
    baseline_instructions = _kernel_length(app) + _background_length(app)
    from repro.perf.stream import pipelined, resolve_stream

    streaming = resolve_stream(stream)
    if streaming:
        kernel_out = simulate_batched_stream(
            pipelined(kernel_trace_segments(app, variant)), configs
        )
    else:
        kernel_out = simulate_batched(kernel_trace(app, variant), configs)

    # The background is the same for every variant: simulate only the
    # configs the memo lacks, each once, and read the rest from it.
    memo = {} if backgrounds is None else backgrounds
    missing = list(dict.fromkeys(
        config for config in configs if (app, config) not in memo
    ))
    background_native = False
    if missing:
        if streaming:
            background_out = simulate_batched_stream(
                pipelined(background_trace_segments(app)), missing
            )
        else:
            background_out = simulate_batched(background_trace(app), missing)
        background_native = background_out.native
        for config, result, batched in zip(
            missing, background_out.results, background_out.batched
        ):
            memo[(app, config)] = (result, batched)
    background_entries = [memo[(app, config)] for config in configs]
    characterisations = [
        AppCharacterisation(
            app=app,
            variant=variant,
            kernel=kernel_result,
            background=background_result,
            merged=merge_results([kernel_result, background_result]),
            baseline_instructions=baseline_instructions,
        )
        for kernel_result, (background_result, _) in zip(
            kernel_out.results, background_entries
        )
    ]
    # A point counts as vectorized only when both component traces took
    # the shared-frontend path.
    vectorized = sum(
        1
        for kernel_batched, (_, background_batched) in zip(
            kernel_out.batched, background_entries
        )
        if kernel_batched and background_batched
    )
    info = {
        "points": len(configs),
        "vectorized": vectorized,
        "fallback": len(configs) - vectorized,
        "native": kernel_out.native or background_native,
    }
    return characterisations, info
