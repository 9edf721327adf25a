"""POWER5-like micro-architectural timing model.

Configuration (:mod:`repro.uarch.config`), branch-direction prediction,
the paper's 8-entry BTAC, an L1D model, the trace-driven core
(:mod:`repro.uarch.core`), SMARTS-style sampling, PMU-style counter
groups, and a synthetic background-trace generator. Names are
re-exported lazily (:func:`repro.lazy.lazy_exports`):
``from repro.uarch import power5`` loads only the configuration.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    ".branch_predictor": ("BimodalPredictor", "GsharePredictor"),
    ".btac": ("Btac", "BtacEntry", "BtacStats"),
    ".cache": ("CacheStats", "L1DCache"),
    ".config": (
        "BtacConfig", "CacheConfig", "CoreConfig", "PredictorConfig",
        "PredictorSpec", "power5",
    ),
    ".core": ("Core", "simulate_trace"),
    ".llc": (
        "LlcConfig", "LlcResult", "SharingStudy", "sharing_study",
        "simulate_llc",
    ),
    ".counters": (
        "CounterGroup", "counter_groups", "derived_metrics", "read_group",
    ),
    ".result": ("IntervalRecord", "SimResult"),
    ".sampling": ("SamplingPlan", "simulate_sampled"),
    ".synthetic": ("MixProfile", "generate_trace"),
}

__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
