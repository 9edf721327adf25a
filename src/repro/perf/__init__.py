"""Profiling and whole-application characterisation.

* :mod:`repro.perf.profiler` — gprof-like, line-counting function
  profiling (Fig. 1);
* :mod:`repro.perf.apps` — end-to-end application drivers and the
  extension experiments' workloads;
* :mod:`repro.perf.characterize` — composite kernel+background workload
  models and the ``characterize()`` entry point every simulation
  experiment uses;
* :mod:`repro.perf.report` — text table rendering.

Names are re-exported lazily (:func:`repro.lazy.lazy_exports`), except
``characterize`` and ``sweep``, which are also submodule names.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    ".apps": ("APP_PHASES", "APPS", "AppRunResult", "run_app"),
    ".characterize": (
        "APP_WORKLOADS", "VARIANTS", "AppCharacterisation",
        "background_trace", "characterize", "kernel_trace",
    ),
    ".profiler": ("ProfileReport", "Profiler", "profile_call"),
    ".report": ("Table", "percent", "signed_percent"),
    ".sweep": ("DesignPoint", "paper_design_space", "sweep", "sweep_table"),
}

__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)

# Bound after their submodules are imported, so the functions, not the
# modules, are what the package holds under these names.
from repro.perf.characterize import characterize  # noqa: E402
from repro.perf.sweep import sweep  # noqa: E402
