"""Branch-prediction laboratory.

Pluggable direction predictors behind a registry
(:mod:`repro.bpred.predictors`), a trace-driven replay harness that
evaluates any scheme on the conditional-branch stream alone
(:mod:`repro.bpred.replay`), and per-branch predictability
characterisation ranking the hard-to-predict branches and attributing
them to kernel source lines (:mod:`repro.bpred.characterize`).

:mod:`repro.bpred.lab` wires these to the repository's workloads and
the engine's persistent cache; it imports the perf/uarch stack, so it
is *not* re-exported here — the CLI (``repro bpred``) and the
``ext_bpred`` experiment load it on demand. The other names are
re-exported lazily (:func:`repro.lazy.lazy_exports`), except
``replay``, which is also a submodule name.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    ".characterize": (
        "BranchProfile", "BranchSite", "StreamCharacterisation",
        "attribute_to_program", "characterize_stream", "outcome_entropy",
    ),
    ".predictors": (
        "DirectionPredictor", "PerceptronPredictor", "StaticPredictor",
        "TournamentPredictor", "TwoLevelLocalPredictor", "make_predictor",
        "predictor_kinds", "register_predictor",
    ),
    ".replay": (
        "BranchStream", "ReplayResult", "branch_stream", "replay",
        "replay_many",
    ),
}

__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)

# Bound after its submodule is imported, so the function, not the
# module, is what the package holds under this name.
from repro.bpred.replay import replay  # noqa: E402
