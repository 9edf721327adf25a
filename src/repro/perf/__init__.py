"""Profiling and whole-application characterisation.

* :mod:`repro.perf.profiler` — gprof-like, line-counting function
  profiling (Fig. 1);
* :mod:`repro.perf.apps` — end-to-end application drivers and the
  extension experiments' workloads;
* :mod:`repro.perf.characterize` — composite kernel+background workload
  models and the ``characterize()`` entry point every simulation
  experiment uses;
* :mod:`repro.perf.report` — text table rendering.
"""

from repro.perf.apps import APP_PHASES, APPS, AppRunResult, run_app
from repro.perf.characterize import (
    APP_WORKLOADS,
    VARIANTS,
    AppCharacterisation,
    background_trace,
    characterize,
    kernel_trace,
)
from repro.perf.profiler import ProfileReport, Profiler, profile_call
from repro.perf.report import Table, percent, signed_percent
from repro.perf.sweep import DesignPoint, paper_design_space, sweep, sweep_table

__all__ = [
    "APP_PHASES",
    "APPS",
    "AppRunResult",
    "run_app",
    "APP_WORKLOADS",
    "VARIANTS",
    "AppCharacterisation",
    "background_trace",
    "characterize",
    "kernel_trace",
    "ProfileReport",
    "Profiler",
    "profile_call",
    "Table",
    "percent",
    "signed_percent",
    "DesignPoint",
    "paper_design_space",
    "sweep",
    "sweep_table",
]
