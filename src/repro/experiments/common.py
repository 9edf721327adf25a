"""Shared plumbing for the experiment drivers.

Each ``repro.experiments.<id>`` module reproduces one table or figure
from the paper's evaluation and returns an :class:`ExperimentResult`
(text tables plus the raw numbers). Simulations flow through the
process-wide :class:`repro.engine.Engine`, which layers an in-memory
memo (keyed by the canonical config digest, not dataclass identity), a
persistent content-addressed result cache, and optional process-pool
fan-out; experiments that share configurations (for instance fig6
reusing fig3/fig4 points) never re-simulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.engine import default_engine
from repro.perf.characterize import AppCharacterisation
from repro.perf.report import Table
from repro.uarch.config import CoreConfig

#: The four applications in the paper's order.
APPS = ("blast", "clustalw", "fasta", "hmmer")

#: Figure 3 / Table II variant order.
FIG3_VARIANTS = (
    "baseline", "hand_isel", "hand_max", "comp_isel", "comp_max",
    "combination",
)


def cached_characterize(
    app: str, variant: str, config: CoreConfig | None = None
) -> AppCharacterisation:
    """Engine-backed :func:`repro.perf.characterize.characterize`.

    Memoised by ``(app, variant, config-digest)`` — two structurally
    equal configs share one entry regardless of object identity — and
    backed by the persistent cache when one is enabled.
    """
    return default_engine().characterize(app, variant, config)


def prefetch_points(
    points: list[tuple[str, str, CoreConfig]],
    jobs: int | None = None,
    batch: bool | None = None,
) -> None:
    """Fan ``points`` out across worker processes before a serial driver.

    Drivers stay simple single-threaded loops; calling this first (as
    ``python -m repro.experiments --jobs N`` does) populates the engine
    memo in parallel so the loop only performs lookups. ``batch``
    controls trace-sharing batched simulation (``None`` defers to
    ``REPRO_BATCH``, default on).
    """
    default_engine().characterize_many(points, jobs, batch=batch)


def clear_cache(persistent: bool = False) -> int:
    """Drop memoised simulations (tests use this for isolation).

    ``persistent=True`` also empties the on-disk trace/result cache;
    returns the number of files removed from it.
    """
    from repro.perf.characterize import clear_trace_caches

    clear_trace_caches()
    return default_engine().clear(persistent=persistent)


@dataclass
class ExperimentResult:
    """One reproduced table/figure: rendered tables + raw numbers.

    ``render()`` output is deterministic — identical for serial and
    parallel runs; wall-time telemetry lives in the engine's stats and
    is rendered separately (``repro.engine.telemetry``).
    """

    experiment: str
    description: str
    tables: list[Table] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        header = f"== {self.experiment}: {self.description} =="
        return "\n\n".join([header] + [t.render() for t in self.tables])

    def __str__(self) -> str:
        return self.render()
