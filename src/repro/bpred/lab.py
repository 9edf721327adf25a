"""The branch-prediction laboratory: cached replay over app kernels.

Glue between the abstract machinery (:mod:`repro.bpred.replay`,
:mod:`repro.bpred.characterize`) and the repository's workloads:

* :func:`stream_for` extracts (and memoises) the conditional-branch
  stream of an app/variant kernel trace, riding on the engine's
  persistent trace store through
  :func:`repro.perf.characterize.kernel_trace`;
* :func:`cached_replay` / :func:`cached_characterisation` persist their
  results through :func:`repro.engine.engine.cached_artifact` result
  slots, addressed by a canonical digest of the
  :class:`~repro.uarch.config.PredictorSpec` — the same
  content-addressing discipline ``repro.engine`` applies to core
  configs, with the same corruption handling (malformed entries, and
  entries recording another spec, are evicted and recomputed, never
  raised);
* :func:`kernel_program` reconstructs the compiled kernel
  :class:`~repro.isa.program.Program` an app's trace came from, so
  ranked H2P branches resolve to labels and source lines.

This module imports the perf layer (which imports the core), so the
``repro.bpred`` package does **not** import it eagerly — the CLI and
experiments pull it in on demand.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.bpred.characterize import (
    BranchProfile,
    BranchSite,
    StreamCharacterisation,
    attribute_to_program,
    characterize_stream,
)
from repro.bpred.replay import BranchStream, ReplayResult, branch_stream, replay
from repro.errors import WorkloadError
from repro.isa.program import Program
from repro.uarch.config import _GSHARE_LIKE, PredictorSpec

#: Result-slot variant suffixes. "~" cannot appear in a code-variant
#: name (precedent: the engine's "~background" trace slot), so these
#: never collide with real simulation results.
_REPLAY_SLOT = "~bpred"
_PROFILE_SLOT = "~bprof"

_stream_cache: dict[tuple[str, str], BranchStream] = {}


def spec_digest(spec: PredictorSpec) -> str:
    """Canonical content digest of a predictor spec (cache address)."""
    payload = json.dumps(
        {"type": "PredictorSpec", "spec": asdict(spec)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def spec_for(
    kind: str, table_bits: int = 12, history_bits: int = 10
) -> PredictorSpec:
    """A valid spec for ``kind`` at roughly the requested geometry.

    Sweeps vary geometry across kinds; gshare-like schemes cannot use
    more history bits than index bits, so the history is clamped for
    them rather than making the whole sweep point invalid.
    """
    if kind in _GSHARE_LIKE and history_bits > table_bits:
        history_bits = table_bits
    return PredictorSpec(
        kind=kind, table_bits=table_bits, history_bits=history_bits
    )


def stream_for(app: str, variant: str = "baseline") -> BranchStream:
    """The conditional-branch stream of one app/variant kernel trace.

    The underlying trace comes from the engine's persistent store (or
    is regenerated and stored); the extracted stream is memoised per
    process — it is a cheap single pass, so it needs no disk slot of
    its own.
    """
    key = (app, variant)
    if key not in _stream_cache:
        from repro.perf.characterize import kernel_trace

        _stream_cache[key] = branch_stream(kernel_trace(app, variant))
    return _stream_cache[key]


def clear_stream_cache() -> None:
    """Drop the in-memory stream memo (test isolation)."""
    _stream_cache.clear()


def _replay_from_payload(
    payload: dict, spec: PredictorSpec
) -> ReplayResult:
    stored = payload["spec"]
    if PredictorSpec(
        kind=str(stored["kind"]),
        **{k: int(v) for k, v in stored.items() if k != "kind"},
    ) != spec:
        raise ValueError("cached replay spec mismatch")
    return ReplayResult(
        spec=spec,
        branches=int(payload["branches"]),
        mispredictions=int(payload["mispredictions"]),
        instructions=int(payload["instructions"]),
    )


def cached_replay(
    app: str, variant: str, spec: PredictorSpec | str
) -> ReplayResult:
    """Replay one predictor over one kernel stream, persistently cached.

    The result slot is addressed by (app, ``variant~bpred``,
    spec digest) — any simulation-source change re-addresses it via the
    source digest baked into the cache path, exactly like engine
    results.
    """
    if isinstance(spec, str):
        spec = PredictorSpec(kind=spec)
    from repro.engine.engine import cached_artifact

    return cached_artifact(
        app, f"{variant}{_REPLAY_SLOT}", spec_digest(spec),
        lambda: replay(stream_for(app, variant), spec),
        ReplayResult.to_payload,
        lambda payload: _replay_from_payload(payload, spec),
    )


def compare(
    app: str,
    variant: str = "baseline",
    specs: tuple[PredictorSpec | str, ...] | list[PredictorSpec | str] = (),
) -> list[ReplayResult]:
    """Cached replay of several predictors over one stream.

    With no ``specs``, every registered kind at default geometry.
    """
    if not specs:
        from repro.bpred.predictors import predictor_kinds

        specs = predictor_kinds()
    return [cached_replay(app, variant, spec) for spec in specs]


def _characterisation_from_payload(
    payload: dict, spec: PredictorSpec
) -> StreamCharacterisation:
    stored = payload["spec"]
    if PredictorSpec(
        kind=str(stored["kind"]),
        **{k: int(v) for k, v in stored.items() if k != "kind"},
    ) != spec:
        raise ValueError("cached characterisation spec mismatch")
    instructions = int(payload["instructions"])
    return StreamCharacterisation(
        spec=spec,
        branches=tuple(
            BranchProfile(
                pc=int(entry["pc"]),
                executions=int(entry["executions"]),
                taken=int(entry["taken"]),
                transitions=int(entry["transitions"]),
                mispredictions=int(entry["mispredictions"]),
                instructions=instructions,
            )
            for entry in payload["branches"]
        ),
        instructions=instructions,
        total_mispredictions=int(payload["total_mispredictions"]),
    )


def cached_characterisation(
    app: str,
    variant: str = "baseline",
    spec: PredictorSpec | str = "gshare",
) -> StreamCharacterisation:
    """Per-branch profile of one kernel stream, persistently cached."""
    if isinstance(spec, str):
        spec = PredictorSpec(kind=spec)
    from repro.engine.engine import cached_artifact

    return cached_artifact(
        app, f"{variant}{_PROFILE_SLOT}", spec_digest(spec),
        lambda: characterize_stream(stream_for(app, variant), spec),
        StreamCharacterisation.to_payload,
        lambda payload: _characterisation_from_payload(payload, spec),
    )


def kernel_program(app: str, variant: str = "baseline") -> Program:
    """The compiled kernel program behind an app's trace.

    Reconstructs exactly the config
    :func:`repro.perf.characterize.kernel_trace` traces with, so every
    pc in the trace indexes this program. The acceptance tests assert
    that correspondence (every conditional-branch pc resolves to a
    ``bc``) for all four apps.
    """
    from repro.bio.scoring import BLOSUM62, GapPenalties
    from repro.kernels import forward_pass, gapped_extend, smith_waterman, viterbi
    from repro.kernels.forward_pass import FpConfig
    from repro.kernels.gapped_extend import GappedConfig
    from repro.kernels.smith_waterman import SwConfig
    from repro.kernels.viterbi import ViterbiConfig
    from repro.perf.characterize import _kernel_inputs, kernel_gaps

    alphabet_size = len(BLOSUM62.alphabet)
    gaps = kernel_gaps()
    if app == "fasta":
        config = SwConfig(
            alphabet_size=alphabet_size,
            open_cost=gaps.open_ + gaps.extend,
            extend_cost=gaps.extend,
        )
        return smith_waterman.HARNESS.compiled(variant, config).program
    if app == "clustalw":
        config = FpConfig(
            alphabet_size=alphabet_size,
            open_cost=gaps.open_ + gaps.extend,
            extend_cost=gaps.extend,
        )
        return forward_pass.HARNESS.compiled(variant, config).program
    if app == "blast":
        gaps = GapPenalties(11, 1)
        config = GappedConfig(
            alphabet_size=alphabet_size,
            open_cost=gaps.open_ + gaps.extend,
            extend_cost=gaps.extend,
            band=12,
            x_drop=30,
        )
        return gapped_extend.HARNESS.compiled(variant, config).program
    if app == "hmmer":
        model, _ = _kernel_inputs("hmmer")
        config = ViterbiConfig(
            length=model.length, alphabet_size=len(model.alphabet)
        )
        return viterbi.HARNESS.compiled(variant, config).program
    raise WorkloadError(f"unknown application {app!r}")


def ranked_sites(
    app: str,
    variant: str = "baseline",
    spec: PredictorSpec | str = "gshare",
    limit: int | None = 10,
) -> list[BranchSite]:
    """H2P branches of one kernel, attributed to kernel source lines."""
    characterisation = cached_characterisation(app, variant, spec)
    return attribute_to_program(
        characterisation, kernel_program(app, variant), limit=limit
    )
