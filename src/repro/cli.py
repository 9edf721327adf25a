"""Command-line interface: ``python -m repro <command> ...``.

Small, scriptable entry points over the library — the shapes a
downstream user expects from the original tools:

========== ====================================================
command    does
========== ====================================================
align      pairwise alignment of the first two FASTA records
search     query vs database (blastp, fasta, or ssearch modes)
msa        Clustalw-style multiple alignment of a FASTA file
phylogeny  parsimony tree for a FASTA file (Newick output)
orfs       ORF scan / Glimmer gene prediction on DNA
simulate   run an application kernel on the POWER5 core model
asm        print a kernel's mini-ISA assembly per variant
trace      dump a kernel trace / re-simulate a saved one
experiments reproduce the paper's tables/figures (engine-backed)
bpred      branch-prediction lab: compare / rank / sweep predictors
accel      accelerator lab: compare offload classes, sweep design knobs
cache      inspect / clear / gc the persistent simulation cache
runs       list / prune the durable sweep run journals
resume     continue an interrupted journaled sweep
work       drain one journaled run as a claim-based worker
========== ====================================================
"""

from __future__ import annotations

import argparse
import sys

# The bio layer (and numpy, which it imports) is imported by the
# commands that run it, so `repro experiments` on a warm cache loads
# no more than `python -m repro.experiments` does.
from repro.errors import ReproError, SweepInterrupted
from repro.perf.characterize import VARIANTS
from repro.perf.report import Table, percent
from repro.uarch.config import power5


def _porcelain_row(*fields) -> str:
    """One tab-separated machine-readable line, fixed arity.

    ``None`` renders as ``-`` so a missing value still occupies its
    column — porcelain consumers index by position, and a journal
    written before some record type existed must not shift the fields
    that come after it.
    """
    return "\t".join(
        "-" if value is None else str(value) for value in fields
    )


def _load(path: str, minimum: int = 1):
    from repro.bio.fasta_io import read_fasta

    records = read_fasta(path)
    if len(records) < minimum:
        raise ReproError(
            f"{path}: need at least {minimum} FASTA records, "
            f"found {len(records)}"
        )
    return records


def _matrix_for(args, records):
    from repro.bio.scoring import BLOSUM62, PAM250, default_matrix

    if args.matrix == "auto":
        return default_matrix(records[0].alphabet)
    return {"blosum62": BLOSUM62, "pam250": PAM250}[args.matrix]


def cmd_align(args) -> int:
    from repro.bio.pairwise import needleman_wunsch, smith_waterman
    from repro.bio.scoring import GapPenalties

    records = _load(args.fasta, minimum=2)
    a, b = records[0], records[1]
    matrix = _matrix_for(args, records)
    gaps = GapPenalties(args.gap_open, args.gap_extend)
    if args.mode == "global":
        alignment = needleman_wunsch(a, b, matrix, gaps)
    else:
        alignment = smith_waterman(a, b, matrix, gaps)
    print(f"# {a.id} vs {b.id} ({args.mode}, {matrix.name})")
    print(f"# score {alignment.score}, identity {alignment.identity:.1%}")
    print(alignment.pretty())
    return 0


def cmd_search(args) -> int:
    from repro.bio.blast import BlastDatabase, blastp
    from repro.bio.fastatool import fasta_search, ssearch

    query = _load(args.query)[0]
    database = _load(args.database)
    if args.mode == "blast":
        hits = blastp(query, BlastDatabase(database))
        print(f"# blastp: {len(hits)} hits")
        for hit in hits[: args.top]:
            best = hit.best
            print(
                f"{hit.subject.id}\tbits={best.bit_score:.1f}\t"
                f"evalue={best.evalue:.2e}\t"
                f"q={best.query_start}-{best.query_end}"
            )
    elif args.mode == "fasta":
        hits = fasta_search(query, database)
        print(f"# fasta (ktup): {len(hits)} hits")
        for hit in hits[: args.top]:
            print(
                f"{hit.subject.id}\tinit1={hit.init1}\t"
                f"initn={hit.initn}\topt={hit.opt}"
            )
    else:
        hits = ssearch(query, database)
        print(f"# ssearch (full Smith-Waterman): {len(hits)} hits")
        for hit in hits[: args.top]:
            print(f"{hit.subject.id}\tscore={hit.score}")
    return 0


def cmd_msa(args) -> int:
    from repro.bio.msa import clustalw

    records = _load(args.fasta, minimum=2)
    msa = clustalw(records, tree_method=args.tree)
    print(f"# {len(records)} sequences, {msa.width} columns")
    print(f"# guide tree: {msa.tree.newick()}")
    print(msa.pretty())
    return 0


def cmd_phylogeny(args) -> int:
    from repro.bio.phylo import phylip

    records = _load(args.fasta, minimum=3)
    result = phylip(records, max_rounds=args.rounds)
    newick = result.tree.newick()
    for index in sorted(range(len(records)), reverse=True):
        newick = newick.replace(str(index), records[index].id)
    print(f"# parsimony score {result.score} "
          f"({result.evaluated} trees evaluated)")
    print(newick + ";")
    return 0


def cmd_orfs(args) -> int:
    from repro.bio.genefind import find_orfs, glimmer

    genome = _load(args.fasta)[0]
    if args.train:
        training = [record.residues for record in _load(args.train)]
        predictions = glimmer(
            genome, training, min_length=args.min_length,
            max_order=args.order,
        )
        print(f"# glimmer: {len(predictions)} predicted genes")
        for prediction in predictions:
            orf = prediction.orf
            print(
                f"{orf.start}\t{orf.end}\t{'+' if orf.strand > 0 else '-'}"
                f"\tscore={prediction.score:.3f}"
            )
    else:
        orfs = find_orfs(genome, min_length=args.min_length)
        print(f"# {len(orfs)} ORFs >= {args.min_length} bp")
        for orf in orfs:
            print(
                f"{orf.start}\t{orf.end}\t"
                f"{'+' if orf.strand > 0 else '-'}\tlen={orf.length}"
            )
    return 0


def cmd_asm(args) -> int:
    from repro.kernels import listing_for

    print(f"# {args.app} kernel, {args.variant} variant")
    print(listing_for(args.app, args.variant))
    return 0


def cmd_trace(args) -> int:
    from repro.isa.tracestore import load_trace_columnar, save_trace_v3
    from repro.perf.characterize import kernel_trace
    from repro.uarch.core import simulate_trace

    if args.stats:
        from collections import Counter

        from repro.isa.trace import opcode_histogram, trace_statistics
        from repro.isa.tracestore import open_trace_segments

        if args.load:
            segments = open_trace_segments(args.load)
            label = args.load
        else:
            if args.app is None:
                raise ReproError("trace --stats: give an app or --load FILE")
            from repro.perf.characterize import kernel_trace_segments

            segments = kernel_trace_segments(args.app, args.variant)
            label = f"{args.app}/{args.variant}"
        histogram: Counter = Counter()

        def tally(chunks):
            # One pass feeds both accumulators with O(segment) memory.
            for segment in chunks:
                histogram.update(opcode_histogram(segment))
                yield segment

        stats = trace_statistics(tally(segments))
        print(f"# {label}: {stats.instructions} instructions")
        print(f"branches={stats.branches} "
              f"cond={stats.conditional_branches} "
              f"({percent(stats.branch_fraction)} of instructions, "
              f"{percent(stats.taken_fraction)} taken)")
        print(f"loads={stats.loads} stores={stats.stores} "
              f"(ld/st {percent(stats.load_store_fraction)})")
        print(f"fxu={stats.fxu_ops} max={stats.max_ops} "
              f"isel={stats.isel_ops} cmp={stats.cmp_ops}")
        for op, count in histogram.most_common(10):
            print(f"{op}\t{count}")
        return 0

    if args.load:
        trace = load_trace_columnar(args.load)
        result = simulate_trace(trace, power5())
        print(f"# {args.load}: {result.instructions} instructions")
        print(f"cycles={result.cycles} ipc={result.ipc:.2f}")
        print(f"branch_mispredict={result.branch_mispredict_rate:.1%} "
              f"l1d_miss={result.cache.miss_rate:.2%}")
        return 0
    if args.app is None:
        raise ReproError("trace: give an app or --load FILE")
    trace = kernel_trace(args.app, args.variant)
    save_trace_v3(args.output, trace)
    print(f"# wrote {len(trace)} events to {args.output}")
    return 0


def cmd_simulate(args) -> int:
    from repro.engine.engine import default_engine

    config = power5().with_fxus(args.fxus)
    if args.btac:
        config = config.with_btac()
    table = Table(
        f"{args.app} on the POWER5 model "
        f"({args.fxus} FXUs{', BTAC' if args.btac else ''})",
        ["Variant", "work IPC", "Branch mispredict", "L1D miss"],
    )
    engine = default_engine()
    variants = VARIANTS if args.variant == "all" else (args.variant,)
    engine.characterize_many(
        [(args.app, variant, config) for variant in variants],
        jobs=args.jobs,
    )
    for variant in variants:
        result = engine.characterize(args.app, variant, config)
        table.add_row(
            variant,
            f"{result.work_ipc:.2f}",
            percent(result.merged.branch_mispredict_rate),
            percent(result.merged.cache.miss_rate, 2),
        )
    print(table.render())
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(args.args)


def cmd_bpred(args) -> int:
    from repro.bpred.predictors import predictor_kinds
    from repro.bpred.lab import (
        cached_characterisation,
        cached_replay,
        ranked_sites,
        spec_for,
        stream_for,
    )
    from repro.engine.cache import use_cache_dir

    if args.cache_dir is not None:
        use_cache_dir(args.cache_dir)

    if args.action == "compare":
        kinds = args.kinds.split(",") if args.kinds else predictor_kinds()
        results = [
            (kind, cached_replay(args.app, args.variant, kind))
            for kind in kinds
        ]
        if args.porcelain:
            # One predictor per line, tab-separated, stable field order
            # (consistent with `repro runs --porcelain`): kind, branches,
            # mispredictions, rate, mpki.
            for kind, result in results:
                print(_porcelain_row(
                    kind,
                    result.branches,
                    result.mispredictions,
                    f"{result.misprediction_rate:.6f}",
                    f"{result.mpki:.3f}",
                ))
            return 0
        table = Table(
            f"Direction predictors on the {args.app} kernel "
            f"({args.variant})",
            ["Predictor", "Branches", "Mispredicts", "Rate", "MPKI"],
        )
        for kind, result in results:
            table.add_row(
                kind,
                result.branches,
                result.mispredictions,
                percent(result.misprediction_rate),
                f"{result.mpki:.2f}",
            )
        print(table.render())
        return 0

    if args.action == "rank":
        sites = ranked_sites(
            args.app, args.variant, spec=args.spec, limit=args.top
        )
        characterisation = cached_characterisation(
            args.app, args.variant, spec=args.spec
        )
        if args.porcelain:
            # One branch per line: pc, location, executions, taken_rate,
            # entropy, transition_rate, mispredictions, mpki.
            for site in sites:
                profile = site.profile
                print(_porcelain_row(
                    profile.pc,
                    site.location,
                    profile.executions,
                    f"{profile.taken_rate:.6f}",
                    f"{profile.entropy:.6f}",
                    f"{profile.transition_rate:.6f}",
                    profile.mispredictions,
                    f"{profile.mpki:.3f}",
                ))
            return 0
        table = Table(
            f"Hardest branches of the {args.app} kernel "
            f"({args.variant}, {args.spec} reference)",
            ["Location", "Source", "Execs", "Taken", "Entropy",
             "Flips", "MPKI"],
        )
        for site in sites:
            profile = site.profile
            table.add_row(
                site.location,
                site.source,
                profile.executions,
                percent(profile.taken_rate),
                f"{profile.entropy:.2f}",
                percent(profile.transition_rate),
                f"{profile.mpki:.2f}",
            )
        print(table.render())
        covered = characterisation.coverage(args.top)
        print(
            f"\n# top {args.top} branches explain {covered:.1%} of "
            f"{characterisation.total_mispredictions} mispredictions "
            f"({characterisation.mpki:.2f} MPKI)"
        )
        return 0

    # sweep: one kind across table/history geometries.
    stream = stream_for(args.app, args.variant)
    table_bits = [int(b) for b in args.table_bits.split(",")]
    history_bits = [int(b) for b in args.history_bits.split(",")]
    rows = []
    for bits in table_bits:
        for history in history_bits:
            spec = spec_for(args.kind, bits, history)
            result = cached_replay(args.app, args.variant, spec)
            rows.append((spec, result))
    if args.porcelain:
        # kind, table_bits, history_bits, branches, mispredictions,
        # rate, mpki.
        for spec, result in rows:
            print(_porcelain_row(
                spec.kind,
                spec.table_bits,
                spec.history_bits,
                result.branches,
                result.mispredictions,
                f"{result.misprediction_rate:.6f}",
                f"{result.mpki:.3f}",
            ))
        return 0
    table = Table(
        f"{args.kind} geometry sweep on the {args.app} kernel "
        f"({args.variant}, {len(stream)} branches)",
        ["Table bits", "History bits", "Mispredicts", "Rate", "MPKI"],
    )
    for spec, result in rows:
        table.add_row(
            spec.table_bits,
            spec.history_bits,
            result.mispredictions,
            percent(result.misprediction_rate),
            f"{result.mpki:.2f}",
        )
    print(table.render())
    return 0


def cmd_accel(args) -> int:
    from dataclasses import fields as dataclass_fields
    from dataclasses import replace

    from repro.accel import AccelConfig, aphmm, bioseal, supported_backends
    from repro.engine.cache import use_cache_dir
    from repro.engine.engine import default_engine

    if args.cache_dir is not None:
        use_cache_dir(args.cache_dir)
    engine = default_engine()

    backend = args.backend
    if backend == "auto":
        backend = supported_backends(args.app)[0]
    base = bioseal() if backend == "bioseal" else aphmm()

    if args.action == "compare":
        classes = args.classes.split(",")
        points = [
            (args.app, args.variant, base.with_class(cls))
            for cls in classes
        ]
        engine.characterize_many(points, jobs=args.jobs)
        rows = [
            (cls, engine.characterize(args.app, args.variant, config))
            for (_, _, config), cls in zip(points, classes)
        ]
        if args.porcelain:
            # One class per line, tab-separated, stable field order
            # (consistent with `repro bpred --porcelain`): class,
            # backend, jobs, cells, host cycles, device cycles,
            # transfer cycles, invocation cycles, utilization,
            # overhead share, energy.
            for cls, est in rows:
                print(_porcelain_row(
                    cls,
                    est.backend,
                    est.jobs,
                    est.cells,
                    est.cycles,
                    est.result.device_cycles,
                    est.result.transfer_cycles,
                    est.result.invocation_cycles,
                    f"{est.utilization:.6f}",
                    f"{est.overhead_share:.6f}",
                    est.energy_pj,
                ))
            return 0
        table = Table(
            f"{backend} offload of the {args.app} kernels "
            f"({args.variant} workloads)",
            ["Class", "Jobs", "DP cells", "Host cycles", "Device cycles",
             "Utilization", "Overhead", "Energy (pJ)"],
        )
        for cls, est in rows:
            table.add_row(
                cls,
                est.jobs,
                est.cells,
                est.cycles,
                est.result.device_cycles,
                percent(est.utilization),
                percent(est.overhead_share),
                est.energy_pj,
            )
        print(table.render())
        return 0

    # sweep: one integer design knob across values at a fixed class.
    sweepable = {
        field.name for field in dataclass_fields(AccelConfig)
        if field.name not in ("backend", "input_class")
    }
    if args.param not in sweepable:
        raise ReproError(
            f"accel sweep: unknown knob {args.param!r}; "
            f"have {', '.join(sorted(sweepable))}"
        )
    values = [int(value) for value in args.values.split(",")]
    anchored = base.with_class(args.input_class)
    configs = [
        replace(anchored, **{args.param: value}) for value in values
    ]
    points = [(args.app, args.variant, config) for config in configs]
    engine.characterize_many(points, jobs=args.jobs)
    rows = [
        (value, engine.characterize(args.app, args.variant, config))
        for value, config in zip(values, configs)
    ]
    if args.porcelain:
        # param, value, host cycles, device cycles, utilization,
        # overhead share, energy.
        for value, est in rows:
            print(_porcelain_row(
                args.param,
                value,
                est.cycles,
                est.result.device_cycles,
                f"{est.utilization:.6f}",
                f"{est.overhead_share:.6f}",
                est.energy_pj,
            ))
        return 0
    table = Table(
        f"{backend} {args.param} sweep on the {args.app} kernels "
        f"(class {args.input_class})",
        [args.param, "Host cycles", "Device cycles", "Utilization",
         "Overhead", "Energy (pJ)"],
    )
    for value, est in rows:
        table.add_row(
            value,
            est.cycles,
            est.result.device_cycles,
            percent(est.utilization),
            percent(est.overhead_share),
            est.energy_pj,
        )
    print(table.render())
    return 0


def cmd_cache(args) -> int:
    from repro.engine.cache import active_cache, use_cache_dir
    from repro.engine.digest import CACHE_SCHEMA_VERSION, sim_source_digest
    from repro.isa.tracestore import TRACE_FORMAT_VERSION

    if args.cache_dir is not None:
        use_cache_dir(args.cache_dir)
    cache = active_cache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"# removed {removed} cached files from {cache.root}")
        return 0
    if args.action == "gc":
        report = cache.gc(tmp_max_age_seconds=args.tmp_max_age)
        print(
            f"# gc {cache.root}: removed {report['tmp_removed']} orphaned "
            f"tmp file(s), scanned {report['scanned']} entries, "
            f"quarantined {report['quarantined']} corrupt entr"
            f"{'y' if report['quarantined'] == 1 else 'ies'}"
        )
        return 0
    stats = cache.stats()
    table = Table(
        f"Persistent simulation cache ({cache.root})",
        ["Field", "Value"],
    )
    table.add_row("enabled", "yes" if cache.enabled else "no (REPRO_CACHE=off)")
    table.add_row("schema version", CACHE_SCHEMA_VERSION)
    table.add_row("trace format", f"v{TRACE_FORMAT_VERSION} (binary columnar)")
    table.add_row("kernel-source digest", sim_source_digest()[:12])
    table.add_row("trace entries", stats["trace_entries"])
    table.add_row("result entries", stats["result_entries"])
    table.add_row("quarantined entries", stats["quarantine_entries"])
    table.add_row("total bytes", stats["total_bytes"])
    print(table.render())
    return 0


def _age_label(seconds: float) -> str:
    """Compact human age: ``42s``, ``7m``, ``3.2h``, ``5.1d``."""
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def cmd_runs(args) -> int:
    from repro.engine import journal
    from repro.engine.cache import active_cache, use_cache_dir

    if args.cache_dir is not None:
        use_cache_dir(args.cache_dir)
    cache = active_cache()
    if not cache.enabled:
        raise ReproError(
            "run journals live in the persistent cache "
            "(REPRO_CACHE=off disables them)"
        )
    if args.action == "prune":
        removed = journal.prune_runs(
            cache.root,
            max_age_seconds=args.max_age,
            include_resumable=args.include_resumable,
        )
        print(
            f"# pruned {removed} journal(s) from "
            f"{journal.runs_root(cache.root)}"
        )
        return 0
    import warnings as _warnings

    with _warnings.catch_warnings():
        # Corrupt neighbours are rendered as rows below; the warning
        # channel is for library consumers, not the CLI listing.
        _warnings.simplefilter("ignore", journal.JournalWarning)
        states = journal.list_runs(cache.root)
    if args.porcelain:
        # One run per line, tab-separated, stable field order — for CI
        # scripts (the interrupt-resume smoke job greps this). New
        # fields append at the end so positional consumers keep
        # working, and journals predating a record type get padded
        # zeros in its columns rather than fewer fields.
        for state in states:
            print(_porcelain_row(
                state.run_id,
                state.status,
                len(state.done),
                len(state.failed),
                len(state.unique_keys),
                f"{state.age_seconds():.0f}",
                state.counters.get("batch.points", 0),
                state.counters.get("stream.segments_consumed", 0),
                len(state.workers),
            ))
        return 0
    if not states:
        print(f"# no run journals under {journal.runs_root(cache.root)}")
        return 0
    table = Table(
        f"Run journals ({journal.runs_root(cache.root)})",
        ["Run", "Status", "Done", "Failed", "Points", "Batched",
         "Workers", "Age"],
    )
    for state in states:
        batched = state.counters.get("batch.points", 0)
        groups = state.counters.get("batch.groups", 0)
        table.add_row(
            state.run_id,
            state.status,
            len(state.done),
            len(state.failed),
            len(state.unique_keys),
            f"{batched} in {groups}" if batched else "-",
            len(state.workers) or "-",
            _age_label(state.age_seconds()),
        )
    print(table.render())
    print(
        "\n# resume an interrupted run with: repro resume <run>; "
        "'corrupt' journals cannot be resumed"
    )
    return 0


def cmd_resume(args) -> int:
    from repro.engine.cache import use_cache_dir
    from repro.engine.engine import Engine

    if args.cache_dir is not None:
        use_cache_dir(args.cache_dir)
    # A fresh engine bound to the *currently* active cache: the shared
    # default engine may have been constructed against another cache
    # directory earlier in this process.
    engine = Engine()
    outcome = engine.resume(
        args.run_id,
        jobs=args.jobs,
        on_error="keep_going" if args.keep_going else "raise",
    )
    print(
        f"# run {outcome.run_id}: {outcome.unique_points} unique points "
        f"({outcome.total_points} requested), {outcome.replayed} replayed "
        f"from the journal, {outcome.submitted} re-submitted"
    )
    if outcome.source_changed:
        print(
            "# note: simulation sources changed since the journal was "
            "written; every point was re-run"
        )
    failed = sum(1 for result in outcome.results if result is None)
    if failed:
        print(f"# {failed} point(s) still failing")
    if not args.no_telemetry:
        print()
        print(engine.stats.render())
    return 0


def cmd_work(args) -> int:
    from repro.engine.cache import active_cache, use_cache_dir
    from repro.service.worker import drain_run

    if args.cache_dir is not None:
        use_cache_dir(args.cache_dir)
    cache = active_cache()
    if not cache.enabled:
        raise ReproError(
            "workers journal through the persistent cache "
            "(REPRO_CACHE=off disables it)"
        )
    report = drain_run(
        cache.root,
        args.run_id,
        worker_id=args.worker_id,
        lease_seconds=args.lease,
        max_points=args.max_points,
    )
    # The worker that drains the last point seals the run (a second
    # footer from a racing worker is identical and harmless).
    from repro.engine.journal import RunJournal, load_run

    state = load_run(cache.root, args.run_id)
    if not state.pending_keys() and not state.complete:
        with RunJournal.attach(cache.root, args.run_id) as run_journal:
            run_journal.record_complete(len(state.failed))
    stats = report.stats
    print(
        f"# worker {report.worker_id} drained run {report.run_id}: "
        f"{len(report.completed)} completed, {len(report.failed)} failed "
        f"(claims={stats.claims}, conflicts={stats.claim_conflicts}, "
        f"steals={stats.claim_steals}, heartbeats={stats.heartbeats})"
    )
    return 1 if report.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Bioinformatics workloads + POWER5-like simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="pairwise alignment")
    p_align.add_argument("fasta", help="FASTA with >= 2 records")
    p_align.add_argument("--mode", choices=["local", "global"],
                         default="local")
    p_align.add_argument("--matrix", choices=["auto", "blosum62", "pam250"],
                         default="auto")
    p_align.add_argument("--gap-open", type=int, default=10)
    p_align.add_argument("--gap-extend", type=int, default=2)
    p_align.set_defaults(func=cmd_align)

    p_search = sub.add_parser("search", help="query vs database")
    p_search.add_argument("query")
    p_search.add_argument("database")
    p_search.add_argument("--mode", choices=["blast", "fasta", "ssearch"],
                          default="blast")
    p_search.add_argument("--top", type=int, default=10)
    p_search.set_defaults(func=cmd_search)

    p_msa = sub.add_parser("msa", help="multiple sequence alignment")
    p_msa.add_argument("fasta")
    p_msa.add_argument("--tree", choices=["upgma", "nj"], default="upgma")
    p_msa.set_defaults(func=cmd_msa)

    p_phy = sub.add_parser("phylogeny", help="parsimony tree")
    p_phy.add_argument("fasta")
    p_phy.add_argument("--rounds", type=int, default=5)
    p_phy.set_defaults(func=cmd_phylogeny)

    p_orf = sub.add_parser("orfs", help="ORF scan / gene prediction")
    p_orf.add_argument("fasta", help="DNA FASTA (first record scanned)")
    p_orf.add_argument("--train", help="FASTA of known coding sequences")
    p_orf.add_argument("--min-length", type=int, default=90)
    p_orf.add_argument("--order", type=int, default=3)
    p_orf.set_defaults(func=cmd_orfs)

    p_asm = sub.add_parser(
        "asm", help="print a kernel's assembly listing"
    )
    p_asm.add_argument("app", choices=["blast", "clustalw", "fasta",
                                       "hmmer", "phylip"])
    p_asm.add_argument("variant", nargs="?", default="baseline")
    p_asm.set_defaults(func=cmd_asm)

    p_trace = sub.add_parser(
        "trace", help="dump a kernel trace / re-simulate a saved one"
    )
    p_trace.add_argument("app", nargs="?",
                         choices=["blast", "clustalw", "fasta", "hmmer"])
    p_trace.add_argument("variant", nargs="?", default="baseline")
    p_trace.add_argument("output", nargs="?", default="kernel.trace")
    p_trace.add_argument("--load", help="re-simulate a saved trace file")
    p_trace.add_argument("--stats", action="store_true",
                         help="print instruction-mix statistics and the "
                              "opcode histogram, streamed segment by "
                              "segment in bounded memory")
    p_trace.set_defaults(func=cmd_trace)

    p_sim = sub.add_parser("simulate", help="core-model characterisation")
    p_sim.add_argument("app", choices=["blast", "clustalw", "fasta",
                                       "hmmer"])
    p_sim.add_argument("--variant", default="all",
                       choices=list(VARIANTS) + ["all"])
    p_sim.add_argument("--fxus", type=int, default=2)
    p_sim.add_argument("--btac", action="store_true")
    p_sim.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                       help="worker processes for variant fan-out")
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser(
        "experiments",
        help="reproduce the paper's tables/figures through the engine",
    )
    p_exp.add_argument(
        "args", nargs=argparse.REMAINDER,
        help="arguments for 'python -m repro.experiments' "
             "(experiment ids, --jobs, --cache-dir, --telemetry-json, ...)",
    )
    p_exp.set_defaults(func=cmd_experiments)

    p_bpred = sub.add_parser(
        "bpred",
        help="branch-prediction lab: compare schemes, rank hard "
             "branches, sweep geometries",
    )
    p_bpred.add_argument("action", choices=["compare", "rank", "sweep"])
    p_bpred.add_argument("app", choices=["blast", "clustalw", "fasta",
                                         "hmmer"])
    p_bpred.add_argument("--variant", default="baseline",
                         choices=list(VARIANTS))
    p_bpred.add_argument("--kinds", default=None, metavar="K1,K2,...",
                         help="compare only: comma-separated predictor "
                              "kinds (default: all registered)")
    p_bpred.add_argument("--spec", default="gshare", metavar="KIND",
                         help="rank only: reference predictor "
                              "(default: gshare)")
    p_bpred.add_argument("--top", type=int, default=10, metavar="N",
                         help="rank only: branches to show (default: 10)")
    p_bpred.add_argument("--kind", default="gshare", metavar="KIND",
                         help="sweep only: predictor kind to sweep")
    p_bpred.add_argument("--table-bits", default="8,10,12,14",
                         metavar="B1,B2,...",
                         help="sweep only: table sizes (default: "
                              "8,10,12,14)")
    p_bpred.add_argument("--history-bits", default="10",
                         metavar="H1,H2,...",
                         help="sweep only: history lengths (default: 10; "
                              "clamped to table bits for gshare-like "
                              "schemes)")
    p_bpred.add_argument("--porcelain", action="store_true",
                         help="tab-separated machine-readable output "
                              "(stable field order per action)")
    p_bpred.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory (default: REPRO_CACHE_DIR "
                              "or ~/.cache/repro-power5)")
    p_bpred.set_defaults(func=cmd_bpred)

    p_accel = sub.add_parser(
        "accel",
        help="accelerator lab: compare offload workload classes, sweep "
             "design knobs",
    )
    p_accel.add_argument("action", choices=["compare", "sweep"])
    p_accel.add_argument("app", choices=["blast", "clustalw", "fasta",
                                         "hmmer"])
    p_accel.add_argument("--variant", default="baseline",
                         choices=list(VARIANTS),
                         help="result-slot variant the estimates file "
                              "under (estimates are variant-independent)")
    p_accel.add_argument("--backend", default="auto",
                         choices=["auto", "bioseal", "aphmm"],
                         help="timing model (default: the one serving "
                              "this app's kernel batches)")
    p_accel.add_argument("--classes", default="A,B,C", metavar="C1,C2,...",
                         help="compare only: workload classes "
                              "(default: A,B,C)")
    p_accel.add_argument("--class", dest="input_class", default="C",
                         choices=["A", "B", "C", "D"],
                         help="sweep only: workload class (default: C)")
    p_accel.add_argument("--param", default="arrays", metavar="KNOB",
                         help="sweep only: AccelConfig knob to sweep "
                              "(default: arrays)")
    p_accel.add_argument("--values", default="1,2,4,8", metavar="V1,V2,...",
                         help="sweep only: knob values (default: 1,2,4,8)")
    p_accel.add_argument("--jobs", "-j", type=int, default=None,
                         metavar="N",
                         help="worker processes for design-point fan-out")
    p_accel.add_argument("--porcelain", action="store_true",
                         help="tab-separated machine-readable output "
                              "(stable field order per action)")
    p_accel.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory (default: REPRO_CACHE_DIR "
                              "or ~/.cache/repro-power5)")
    p_accel.set_defaults(func=cmd_accel)

    p_cache = sub.add_parser(
        "cache",
        help="inspect / clear / garbage-collect the persistent "
             "simulation cache",
    )
    p_cache.add_argument("action", choices=["stats", "clear", "gc"])
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory (default: REPRO_CACHE_DIR "
                              "or ~/.cache/repro-power5)")
    p_cache.add_argument("--tmp-max-age", type=float, default=0.0,
                         metavar="SECONDS",
                         help="gc only: minimum age before an orphaned "
                              ".tmp-* file is removed (default: 0, "
                              "remove all)")
    p_cache.set_defaults(func=cmd_cache)

    p_runs = sub.add_parser(
        "runs",
        help="list / prune the durable sweep run journals",
    )
    p_runs.add_argument("action", nargs="?", choices=["list", "prune"],
                        default="list")
    p_runs.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (default: REPRO_CACHE_DIR "
                             "or ~/.cache/repro-power5)")
    p_runs.add_argument("--max-age", type=float, default=0.0,
                        metavar="SECONDS",
                        help="prune only: minimum journal age before "
                             "removal (default: 0, remove all eligible)")
    p_runs.add_argument("--include-resumable", action="store_true",
                        help="prune only: also remove interrupted "
                             "(resumable) journals")
    p_runs.add_argument("--porcelain", action="store_true",
                        help="tab-separated machine-readable listing: "
                             "run, status, done, failed, points, age, "
                             "batched points, streamed segments, "
                             "workers (older journals pad zeros)")
    p_runs.set_defaults(func=cmd_runs)

    p_resume = sub.add_parser(
        "resume",
        help="continue an interrupted journaled sweep",
    )
    p_resume.add_argument("run_id", help="run id from 'repro runs'")
    p_resume.add_argument("--jobs", "-j", type=int, default=None,
                          metavar="N",
                          help="worker processes for the remainder")
    p_resume.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="cache directory holding the journal")
    p_resume.add_argument("--keep-going", action="store_true",
                          help="finish the sweep even if points keep "
                               "failing (partial results)")
    p_resume.add_argument("--no-telemetry", action="store_true",
                          help="suppress the engine telemetry table")
    p_resume.set_defaults(func=cmd_resume)

    p_work = sub.add_parser(
        "work",
        help="drain one journaled run as a claim-based worker "
             "(several may share a run)",
    )
    p_work.add_argument("run_id", help="run id from 'repro runs'")
    p_work.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory holding the journal")
    p_work.add_argument("--worker-id", default=None, metavar="ID",
                        help="stable worker identity "
                             "(default: worker-<pid>)")
    p_work.add_argument("--lease", type=float, default=30.0,
                        metavar="SECONDS",
                        help="point lease duration (default: 30)")
    p_work.add_argument("--max-points", type=int, default=None,
                        metavar="N",
                        help="stop after taking N points")
    p_work.set_defaults(func=cmd_work)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SweepInterrupted as error:
        # Distinct status so wrappers can tell "crashed" from "stopped
        # but resumable" (the message names the resume command).
        print(f"interrupted: {error}", file=sys.stderr)
        return SweepInterrupted.EXIT_STATUS
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
