"""Accelerator estimation lab: engine-shaped results and caching.

This is the layer the engine, CLI and experiments talk to. It turns a
``(app, variant, AccelConfig)`` design point into an
:class:`AccelEstimate` — the accelerator analogue of
:class:`~repro.perf.characterize.AppCharacterisation` — and persists it
through the same content-addressed result store core sims use, under
the reserved result slot ``<variant>~accel`` ("~" cannot appear in a
code-variant name, so the slot can never collide with a real variant).

The ``variant`` in an accelerator point is addressing only: the device
never executes host code, so estimates are variant-independent — but
keeping the (app, variant, config) point shape means accelerator points
flow through the engine's memo, journal, scheduler and resume paths
without special cases.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.accel.base import BackendResult, backend_for
from repro.accel.config import AccelConfig
from repro.accel.workload import WorkloadBatch, workload_batch
from repro.errors import SimulationError

#: Result-slot suffix for persisted accelerator estimates.
ACCEL_SLOT_SUFFIX = "~accel"


def accel_slot(variant: str) -> str:
    """The persistent-store slot for one variant's accelerator results."""
    return f"{variant}{ACCEL_SLOT_SUFFIX}"


@dataclass
class AccelEstimate:
    """One accelerator design point's priced workload batch."""

    app: str
    variant: str
    config: AccelConfig
    result: BackendResult

    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def input_class(self) -> str:
        return self.config.input_class

    @property
    def jobs(self) -> int:
        return self.result.jobs

    @property
    def cells(self) -> int:
        return self.result.cells

    @property
    def cycles(self) -> int:
        """Host-equivalent cycles — the cross-backend comparison metric."""
        return self.result.host_cycles

    @property
    def utilization(self) -> float:
        return self.result.utilization

    @property
    def transfer_share(self) -> float:
        return self.result.transfer_share

    @property
    def overhead_share(self) -> float:
        return self.result.overhead_share

    @property
    def energy_pj(self) -> int:
        return self.result.energy_pj

    # -- engine compatibility ---------------------------------------
    # The engine's telemetry reads ``result.merged.instructions`` off
    # every characterisation; for an estimate the work measure is the
    # batch's DP cell count.

    @property
    def instructions(self) -> int:
        return self.result.cells

    @property
    def merged(self) -> "AccelEstimate":
        return self

    def speedup_over_cycles(self, host_cycles: int) -> float:
        """Improvement vs a host-cycle reference (0.0 on empty work)."""
        if self.cycles == 0:
            return 0.0
        return host_cycles / self.cycles - 1.0


def estimate(
    app: str, variant: str, config: AccelConfig,
    batch: WorkloadBatch | None = None,
) -> AccelEstimate:
    """Price one accelerator design point (no caching).

    ``batch`` lets batched callers share one workload construction
    across many configs; it must match the config's app/class.
    """
    if batch is None:
        batch = workload_batch(app, config.input_class)
    elif batch.app != app or batch.input_class != config.input_class:
        raise SimulationError(
            f"batch {batch.app}/{batch.input_class} does not match point "
            f"{app}/{config.input_class}"
        )
    backend = backend_for(config)
    if not backend.supports(batch):
        raise SimulationError(
            f"backend {config.backend!r} does not support {app!r} "
            f"({batch.kind} batches)"
        )
    return AccelEstimate(
        app=app, variant=variant, config=config,
        result=backend.estimate(batch),
    )


def estimate_many(
    app: str, variant: str, configs: list[AccelConfig]
) -> tuple[list[AccelEstimate], dict]:
    """Price many design points, sharing workload batches per class.

    The accelerator analogue of
    :func:`~repro.perf.characterize.characterize_batched`: one batch
    construction per input class serves every config aimed at it.
    Returns ``(estimates, info)`` with sharing counters.
    """
    batches: dict[str, WorkloadBatch] = {}
    estimates = []
    for config in configs:
        if config.input_class not in batches:
            batches[config.input_class] = workload_batch(
                app, config.input_class
            )
        estimates.append(
            estimate(app, variant, config, batch=batches[config.input_class])
        )
    info = {
        "points": len(estimates),
        "batches": len(batches),
        "shared": len(estimates) - len(batches),
    }
    return estimates, info


def supported_backends(app: str) -> tuple[str, ...]:
    """Backends that can serve one application's batches."""
    from repro.accel.aphmm import ApHmmBackend
    from repro.accel.bioseal import BioSealBackend
    from repro.accel.config import aphmm, bioseal

    batch = workload_batch(app, "A")
    names = []
    for backend in (BioSealBackend(bioseal()), ApHmmBackend(aphmm())):
        if backend.supports(batch):
            names.append(backend.name)
    return tuple(names)


# -- serialization (strict, engine-store shaped) --------------------


def estimate_to_dict(est: AccelEstimate) -> dict:
    """Canonical payload; ``backend`` is the accel/core discriminator
    (no :class:`~repro.perf.characterize.AppCharacterisation` payload
    has that key)."""
    return {
        "backend": est.backend,
        "app": est.app,
        "variant": est.variant,
        "input_class": est.input_class,
        "config": asdict(est.config),
        "result": est.result.to_payload(),
    }


def estimate_from_dict(payload: dict) -> AccelEstimate:
    """Strict reconstruction; malformed payloads raise (=> eviction)."""
    expected = {"backend", "app", "variant", "input_class", "config",
                "result"}
    if set(payload) != expected:
        raise ValueError(
            f"accel payload keys {sorted(payload)} != {sorted(expected)}"
        )
    config = AccelConfig(**payload["config"])
    if config.backend != payload["backend"]:
        raise ValueError("accel payload backend/config mismatch")
    if config.input_class != payload["input_class"]:
        raise ValueError("accel payload input-class/config mismatch")
    return AccelEstimate(
        app=str(payload["app"]),
        variant=str(payload["variant"]),
        config=config,
        result=BackendResult.from_payload(payload["result"]),
    )

