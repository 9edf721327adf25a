"""Core-model configuration.

:class:`CoreConfig` captures the POWER5 parameters the paper varies:
number of fixed-point units (§VI-C), the 2-cycle taken-branch bubble and
its BTAC remedy (§IV-D / §VI-B), plus the fixed machine shape (fetch and
commit widths, pipeline depth, branch predictor, L1D geometry).

``power5()`` is the baseline machine of Table I; the experiment drivers
derive the enhanced configurations from it with ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import SimulationError


@dataclass(frozen=True)
class PredictorConfig:
    """Gshare direction-predictor geometry."""

    table_bits: int = 12
    history_bits: int = 10

    def __post_init__(self) -> None:
        if self.table_bits < 1 or self.history_bits < 0:
            raise SimulationError(f"bad predictor geometry: {self}")
        if self.history_bits > self.table_bits:
            raise SimulationError("history cannot exceed table index bits")


#: Direction-predictor kinds the registry in :mod:`repro.bpred` provides.
#: Validated here so a typo'd spec fails at configuration time, before
#: it leaks into a config digest.
PREDICTOR_KINDS = (
    "taken", "not_taken", "bimodal", "gshare", "local", "tournament",
    "perceptron",
)

#: Kinds whose gshare component indexes its table with global history,
#: so the history cannot exceed the table index bits.
_GSHARE_LIKE = ("gshare", "tournament")


@dataclass(frozen=True)
class PredictorSpec:
    """Which direction predictor a core uses, and its geometry.

    ``kind`` names an entry in the :mod:`repro.bpred` predictor
    registry. ``table_bits`` sizes every per-PC table (counters, local
    histories, perceptrons); ``history_bits`` is the history length
    (global for gshare/tournament/perceptron, per-branch for the
    two-level local scheme); ``threshold`` is the perceptron training
    threshold, where 0 selects the classic ``1.93 * history + 14``.

    The spec is a frozen dataclass nested inside
    :class:`CoreConfig`, so it folds into the engine's config digest
    like every other machine parameter.
    """

    kind: str = "gshare"
    table_bits: int = 12
    history_bits: int = 10
    threshold: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PREDICTOR_KINDS:
            raise SimulationError(
                f"unknown predictor kind {self.kind!r}; "
                f"have {PREDICTOR_KINDS}"
            )
        if self.table_bits < 1 or self.history_bits < 0:
            raise SimulationError(f"bad predictor geometry: {self}")
        if self.kind in _GSHARE_LIKE and self.history_bits > self.table_bits:
            raise SimulationError("history cannot exceed table index bits")
        if self.threshold < 0:
            raise SimulationError("threshold must be >= 0")

    def gshare_geometry(self) -> PredictorConfig:
        """This spec's geometry as legacy gshare configuration."""
        return PredictorConfig(
            table_bits=self.table_bits, history_bits=self.history_bits
        )


@dataclass(frozen=True)
class BtacConfig:
    """Branch Target Address Cache geometry (§IV-D).

    ``entries`` defaults to the paper's tiny 8-entry table. ``score``
    is a saturating counter; prediction is forgone below
    ``score_threshold`` because a wrong target costs more than the
    2-cycle bubble it would hide.
    """

    entries: int = 8
    score_bits: int = 2
    score_threshold: int = 2
    initial_score: int = 0
    #: Fetch bubble when a confident entry supplies the wrong target.
    #: The branch's true target is recomputed at decode (direct
    #: branches), so this is "greater than the two-cycle branch delay"
    #: (§IV-D) but far from a full pipeline flush.
    wrong_target_penalty: int = 5

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise SimulationError("BTAC needs at least one entry")
        max_score = (1 << self.score_bits) - 1
        if not 0 <= self.score_threshold <= max_score:
            raise SimulationError("score threshold outside counter range")
        if not 0 <= self.initial_score <= max_score:
            raise SimulationError("initial score outside counter range")
        if self.wrong_target_penalty < 0:
            raise SimulationError("wrong_target_penalty must be >= 0")


@dataclass(frozen=True)
class CacheConfig:
    """L1D geometry (POWER5: 32 KiB, 4-way, 128-byte lines)."""

    size_bytes: int = 32 * 1024
    line_bytes: int = 128
    ways: int = 4
    hit_latency: int = 2
    miss_penalty: int = 13  # L2-hit latency on POWER5

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.size_bytes <= 0 or self.ways <= 0:
            raise SimulationError(f"bad cache geometry: {self}")
        sets = self.size_bytes // (self.line_bytes * self.ways)
        if sets < 1 or sets & (sets - 1):
            raise SimulationError("cache set count must be a power of two")
        if self.hit_latency < 0 or self.miss_penalty < 0:
            raise SimulationError("cache latencies must be >= 0")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass(frozen=True)
class CoreConfig:
    """A POWER5-like core.

    The paper's three knobs are ``fxu_count``, ``taken_branch_penalty``
    (hidden by a BTAC when ``btac`` is set), and — implicitly through
    the code variants — the predicated instructions.
    """

    fetch_width: int = 5
    commit_width: int = 5
    pipeline_depth: int = 16  # front-end refill on a flush (POWER5 is long)
    window: int = 48  # effective in-flight instructions (issue-queue bound)
    fxu_count: int = 2
    lsu_count: int = 2
    bru_count: int = 1
    taken_branch_penalty: int = 2
    predictor: PredictorSpec = field(default_factory=PredictorSpec)
    btac: BtacConfig | None = None
    cache: CacheConfig = field(default_factory=CacheConfig)

    def __post_init__(self) -> None:
        if self.fetch_width < 1 or self.commit_width < 1:
            raise SimulationError("widths must be positive")
        if min(self.fxu_count, self.lsu_count, self.bru_count) < 1:
            raise SimulationError("need at least one unit of each kind")
        if self.taken_branch_penalty < 0 or self.pipeline_depth < 1:
            raise SimulationError("bad pipeline parameters")
        if self.window < 1:
            raise SimulationError("window must be positive")

    def with_btac(self, btac: BtacConfig | None = None) -> "CoreConfig":
        """This core plus a BTAC (default 8-entry)."""
        return replace(self, btac=btac or BtacConfig())

    def with_fxus(self, count: int) -> "CoreConfig":
        """This core with ``count`` fixed-point units."""
        return replace(self, fxu_count=count)

    def with_smt(self) -> "CoreConfig":
        """SMT-mode approximation: the taken-branch bubble grows to
        three cycles (§III: "3-cycle if SMT is enabled")."""
        return replace(self, taken_branch_penalty=3)

    def with_predictor(
        self, predictor: "PredictorSpec | str", **geometry: int
    ) -> "CoreConfig":
        """This core with another direction predictor.

        Accepts a ready :class:`PredictorSpec` or a registry kind name
        plus geometry overrides: ``power5().with_predictor("perceptron",
        history_bits=16)``.
        """
        if isinstance(predictor, str):
            predictor = PredictorSpec(kind=predictor, **geometry)
        elif geometry:
            raise SimulationError(
                "geometry overrides require a kind name, not a full spec"
            )
        return replace(self, predictor=predictor)


def power5() -> CoreConfig:
    """The baseline POWER5 of §III: 2 FXUs, no BTAC, 2-cycle bubble."""
    return CoreConfig()
