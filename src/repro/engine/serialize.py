"""Lossless JSON round-tripping of simulation results.

Every numeric field in :class:`~repro.uarch.result.SimResult` is an
integer, so the JSON round trip is exact: a result loaded from the
persistent cache renders byte-identically to one just simulated. The
schema is strict — unknown/missing fields raise, which the cache layer
treats as corruption and regenerates.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.perf.characterize import AppCharacterisation
from repro.uarch.btac import BtacStats
from repro.uarch.cache import CacheStats
from repro.uarch.config import BtacConfig, CacheConfig, CoreConfig, PredictorSpec
from repro.uarch.result import IntervalRecord, SimResult

_SIM_INT_FIELDS = (
    "instructions", "cycles", "branches", "conditional_branches",
    "taken_branches", "direction_mispredictions", "target_mispredictions",
    "taken_bubbles", "loads", "stores", "load_misses", "fxu_ops",
)
_BTAC_FIELDS = (
    "lookups", "hits", "predictions", "correct", "incorrect", "allocations",
)
_INTERVAL_FIELDS = (
    "start_instruction", "instructions", "cycles", "branches",
    "direction_mispredictions",
)


def result_to_dict(result: SimResult) -> dict:
    payload: dict = {name: getattr(result, name) for name in _SIM_INT_FIELDS}
    payload["stall_cycles"] = dict(result.stall_cycles)
    payload["cache"] = {
        "accesses": result.cache.accesses,
        "misses": result.cache.misses,
    }
    payload["btac"] = (
        None
        if result.btac is None
        else {name: getattr(result.btac, name) for name in _BTAC_FIELDS}
    )
    payload["intervals"] = [
        {name: getattr(record, name) for name in _INTERVAL_FIELDS}
        for record in result.intervals
    ]
    return payload


def result_from_dict(payload: dict) -> SimResult:
    result = SimResult(**{name: int(payload[name]) for name in _SIM_INT_FIELDS})
    # Results serialised before the dead "none" stall bucket was removed
    # may still carry it (always zero); drop it so old cache entries
    # compare equal to fresh simulations.
    result.stall_cycles = {
        str(key): int(value)
        for key, value in payload["stall_cycles"].items()
        if key != "none"
    }
    result.cache = CacheStats(
        accesses=int(payload["cache"]["accesses"]),
        misses=int(payload["cache"]["misses"]),
    )
    btac = payload["btac"]
    result.btac = (
        None
        if btac is None
        else BtacStats(**{name: int(btac[name]) for name in _BTAC_FIELDS})
    )
    result.intervals = [
        IntervalRecord(**{name: int(record[name]) for name in _INTERVAL_FIELDS})
        for record in payload["intervals"]
    ]
    return result


_CORE_INT_FIELDS = (
    "fetch_width", "commit_width", "pipeline_depth", "window", "fxu_count",
    "lsu_count", "bru_count", "taken_branch_penalty",
)


def config_to_dict(config: CoreConfig) -> dict:
    """Canonical nested-dict form of a core configuration.

    The same shape ``config_digest`` hashes, so a config journaled by
    a sweep reconstructs to a digest-identical :class:`CoreConfig`.
    """
    return asdict(config)


def config_from_dict(payload: dict):
    """Rebuild a journaled config (core or accelerator).

    Accelerator configs are discriminated by their ``backend`` field —
    no :class:`CoreConfig` payload has one. Strict like the result
    schema: unknown shapes raise ``KeyError`` / ``TypeError``, which
    journal consumers surface as corruption.
    """
    if "backend" in payload:
        from repro.accel.config import AccelConfig

        return AccelConfig(**{
            key: value if key in ("backend", "input_class") else int(value)
            for key, value in payload.items()
        })
    btac = payload["btac"]
    return CoreConfig(
        **{name: int(payload[name]) for name in _CORE_INT_FIELDS},
        predictor=PredictorSpec(
            kind=str(payload["predictor"]["kind"]),
            **{
                k: int(v)
                for k, v in payload["predictor"].items()
                if k != "kind"
            },
        ),
        btac=(
            None
            if btac is None
            else BtacConfig(**{k: int(v) for k, v in btac.items()})
        ),
        cache=CacheConfig(
            **{k: int(v) for k, v in payload["cache"].items()}
        ),
    )


def characterisation_to_dict(result) -> dict:
    """Canonical payload for a characterisation or accelerator estimate.

    Accelerator estimates serialize through :mod:`repro.accel.lab`;
    their payloads carry a ``backend`` key no
    :class:`AppCharacterisation` payload has, which is what
    :func:`characterisation_from_dict` dispatches on.
    """
    from repro.accel.lab import AccelEstimate, estimate_to_dict

    if isinstance(result, AccelEstimate):
        return estimate_to_dict(result)
    return {
        "app": result.app,
        "variant": result.variant,
        "kernel": (
            None if result.kernel is None else result_to_dict(result.kernel)
        ),
        "background": (
            None
            if result.background is None
            else result_to_dict(result.background)
        ),
        "merged": result_to_dict(result.merged),
        "baseline_instructions": result.baseline_instructions,
    }


def characterisation_from_dict(payload: dict):
    if "backend" in payload:
        from repro.accel.lab import estimate_from_dict

        return estimate_from_dict(payload)
    return AppCharacterisation(
        app=str(payload["app"]),
        variant=str(payload["variant"]),
        kernel=(
            None
            if payload["kernel"] is None
            else result_from_dict(payload["kernel"])
        ),
        background=(
            None
            if payload["background"] is None
            else result_from_dict(payload["background"])
        ),
        merged=result_from_dict(payload["merged"]),
        baseline_instructions=int(payload["baseline_instructions"]),
    )
