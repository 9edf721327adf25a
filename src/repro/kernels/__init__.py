"""The four hot dynamic-programming kernels, authored in IR.

Per application (paper Figure 1):

* Fasta / ssearch — :mod:`repro.kernels.smith_waterman` (``dropgsw``);
* Clustalw — :mod:`repro.kernels.forward_pass` (``forward_pass``);
* Hmmer — :mod:`repro.kernels.viterbi` (``P7Viterbi``);
* Blast — :mod:`repro.kernels.gapped_extend` (``SEMI_G_ALIGN_EX``);
* plus the SVIII extension, Phylip's Fitch parsimony
  (:mod:`repro.kernels.parsimony`).

Each module exposes ``build(variant, config)`` (the IR), a module-level
``HARNESS`` (compilation cache + runner) and ``run(...)`` executing on
real inputs with results cross-checked against the pure-Python
references in :mod:`repro.bio`.
"""

from repro.kernels import (
    forward_pass,
    gapped_extend,
    parsimony,
    smith_waterman,
    viterbi,
)
from repro.kernels.builder import Emitter
from repro.kernels.runtime import (
    ALL_VARIANTS,
    COMPILER_VARIANTS,
    KERNEL_NEG_INF,
    KernelHarness,
)

#: Kernel module per application, keyed like the paper's workloads.
KERNELS_BY_APP = {
    "blast": gapped_extend,
    "clustalw": forward_pass,
    "fasta": smith_waterman,
    "hmmer": viterbi,
}

def representative_config(app: str):
    """A representative compile-time configuration of one application's
    kernel (the same shapes the characterisation harness uses)."""
    from repro.bio.scoring import BLOSUM62
    from repro.errors import WorkloadError

    size = len(BLOSUM62.alphabet)
    configs = {
        "blast": gapped_extend.GappedConfig(size, 12, 1, 12, 30),
        "clustalw": forward_pass.FpConfig(size, 12, 2),
        "fasta": smith_waterman.SwConfig(size, 12, 2),
        "hmmer": viterbi.ViterbiConfig(24, size),
        "phylip": parsimony.ParsimonyConfig(),
    }
    if app not in configs:
        raise WorkloadError(
            f"unknown app {app!r}; have {sorted(configs)}"
        )
    return configs[app]


def listing_for(app: str, variant: str = "baseline") -> str:
    """Assembly listing of one application's kernel in one variant,
    under :func:`representative_config`."""
    config = representative_config(app)
    harness = dict(KERNELS_BY_APP, phylip=parsimony)[app].HARNESS
    return harness.compiled(variant, config).program.listing()


#: The hot function name per application (paper Figure 1).
KERNEL_FUNCTION_NAMES = {
    "blast": "SEMI_G_ALIGN_EX",
    "clustalw": "forward_pass",
    "fasta": "dropgsw",
    "hmmer": "P7Viterbi",
}

__all__ = [
    "forward_pass",
    "gapped_extend",
    "parsimony",
    "smith_waterman",
    "viterbi",
    "Emitter",
    "ALL_VARIANTS",
    "COMPILER_VARIANTS",
    "KERNEL_NEG_INF",
    "KernelHarness",
    "KERNELS_BY_APP",
    "KERNEL_FUNCTION_NAMES",
]
