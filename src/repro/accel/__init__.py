"""Accelerator scenario pack: offload backends for the DP kernels.

The paper's answer to the dominant dynamic-programming kernel cost was
ISA/uarch tweaks; the related work's answer is offload. This package
models both offload families from PAPERS.md as batch-level analytical
backends — :mod:`repro.accel.bioseal` (associative
processing-in-memory alignment) and :mod:`repro.accel.aphmm`
(profile-HMM acceleration) — fed by workload batches derived from the
same class-A/B/C specs as the synthetic inputs, and cached/journaled/
swept through the engine exactly like core simulations.

See ``docs/accel.md`` for model assumptions and timing formulas.
"""

from repro.accel.base import Backend, BackendResult, backend_for

# The backend modules share their names with the factory functions
# below. Load them eagerly so the factory bindings are applied *after*
# the import system sets the submodule attributes — a later lazy
# ``from repro.accel.bioseal import ...`` then cannot shadow the
# factories (first-load is the only time the parent attribute is set).
import repro.accel.aphmm  # noqa: E402,F401
import repro.accel.bioseal  # noqa: E402,F401

from repro.accel.config import AccelConfig, aphmm, bioseal
from repro.accel.lab import (
    AccelEstimate,
    accel_slot,
    estimate,
    estimate_many,
    supported_backends,
)
from repro.accel.workload import (
    AlignmentJob,
    HmmJob,
    WorkloadBatch,
    workload_batch,
)

__all__ = [
    "AccelConfig",
    "AccelEstimate",
    "AlignmentJob",
    "Backend",
    "BackendResult",
    "HmmJob",
    "WorkloadBatch",
    "accel_slot",
    "aphmm",
    "backend_for",
    "bioseal",
    "estimate",
    "estimate_many",
    "supported_backends",
    "workload_batch",
]
