"""Tests for the whole-application characterisation harness."""

import pytest

from repro.errors import WorkloadError
from repro.perf.characterize import (
    APP_WORKLOADS,
    VARIANTS,
    background_trace,
    characterize,
    composite_trace,
    kernel_trace,
)
from repro.uarch.config import power5
from repro.uarch.core import simulate_trace


class TestTraces:
    @pytest.mark.parametrize("app", sorted(APP_WORKLOADS))
    def test_kernel_trace_nonempty_and_cached(self, app):
        first = kernel_trace(app, "baseline")
        assert len(first) > 10_000
        assert kernel_trace(app, "baseline") is first  # cached

    @pytest.mark.parametrize("app", sorted(APP_WORKLOADS))
    def test_background_sized_by_weight(self, app):
        kernel_length = len(kernel_trace(app, "baseline"))
        background_length = len(background_trace(app))
        weight = APP_WORKLOADS[app].kernel_weight
        expected = kernel_length * (1 - weight) / weight
        assert background_length == pytest.approx(expected, rel=0.01)

    def test_variant_changes_kernel_trace(self):
        base = kernel_trace("fasta", "baseline")
        hand = kernel_trace("fasta", "hand_max")
        assert len(hand) < len(base)  # max removes instructions

    def test_unknown_app_rejected(self):
        with pytest.raises(WorkloadError):
            kernel_trace("bogus", "baseline")


class TestCharacterize:
    @pytest.fixture(scope="class")
    def baseline(self):
        return characterize("fasta", "baseline", power5())

    def test_merged_is_sum_of_components(self, baseline):
        assert baseline.merged.instructions == (
            baseline.kernel.instructions + baseline.background.instructions
        )
        assert baseline.merged.cycles == (
            baseline.kernel.cycles + baseline.background.cycles
        )

    def test_work_ipc_baseline_equals_ipc(self, baseline):
        assert baseline.work_ipc == pytest.approx(baseline.ipc, rel=1e-9)

    def test_speedup_of_self_is_zero(self, baseline):
        assert baseline.speedup_over(baseline) == pytest.approx(0.0)

    def test_predication_speeds_up_every_app(self):
        for app in sorted(APP_WORKLOADS):
            base = characterize(app, "baseline", power5())
            hand = characterize(app, "hand_max", power5())
            assert hand.speedup_over(base) > 0.1, app

    def test_unknown_variant_rejected(self):
        with pytest.raises(WorkloadError):
            characterize("fasta", "hand_cmov", power5())

    def test_unknown_app_rejected(self):
        with pytest.raises(WorkloadError):
            characterize("bogus", "baseline", power5())

    def test_variants_list_matches_kernel_harness(self):
        from repro.kernels.runtime import ALL_VARIANTS

        assert set(VARIANTS) == set(ALL_VARIANTS)


class TestInterleaved:
    def test_composite_trace_contains_all_events(self):
        merged = composite_trace("fasta", "baseline")
        expected = len(kernel_trace("fasta", "baseline")) + len(
            background_trace("fasta")
        )
        assert len(merged) == expected

    def test_interleaved_close_to_separate(self):
        """Cross-phase interference exists but is small — the bound
        that justifies the separate-component default."""
        separate = characterize("fasta", "baseline", power5())
        mixed = simulate_trace(composite_trace("fasta", "baseline"), power5())
        assert abs(mixed.ipc - separate.ipc) / separate.ipc < 0.05

    def test_interleaved_instruction_count_matches(self):
        separate = characterize("fasta", "baseline", power5())
        mixed = simulate_trace(composite_trace("fasta", "baseline"), power5())
        assert mixed.instructions == separate.merged.instructions


class TestZeroWorkConventions:
    """Degenerate characterisations follow the 0.0 convention.

    Every derived rate on an empty run returns 0.0 — the same
    convention the PMU-style :class:`SimResult` properties use —
    rather than raising ZeroDivisionError. Regression tests for the
    audit that unified ``work_ipc`` and ``speedup_over`` with it.
    """

    @pytest.fixture()
    def empty(self):
        from repro.perf.characterize import AppCharacterisation
        from repro.uarch.core import SimResult

        return AppCharacterisation(
            app="fasta", variant="baseline",
            kernel=None, background=None,
            merged=SimResult(), baseline_instructions=0,
        )

    def test_empty_sim_result_ipc_is_zero(self):
        from repro.uarch.core import SimResult

        assert SimResult().ipc == 0.0

    def test_empty_characterisation_rates_are_zero(self, empty):
        assert empty.cycles == 0
        assert empty.ipc == 0.0
        assert empty.work_ipc == 0.0

    def test_speedup_over_with_zero_cycles_is_zero(self, empty):
        real = characterize("fasta", "baseline", power5())
        assert empty.speedup_over(real) == 0.0
        assert empty.speedup_over(empty) == 0.0
        # The well-defined direction still works: a real run against a
        # zero-cycle reference claims no speedup over nothing... but it
        # must not raise either.
        assert real.speedup_over(empty) == pytest.approx(-1.0)


class TestKernelGeometry:
    """The DP extents that calibrate CPU-vs-offload comparisons."""

    def test_cell_count_is_product_of_dimensions(self):
        from repro.perf.characterize import (
            kernel_cell_count,
            kernel_dimensions,
        )

        for app in sorted(APP_WORKLOADS):
            dims = kernel_dimensions(app)
            assert dims and all(r > 0 and c > 0 for r, c in dims)
            assert kernel_cell_count(app) == sum(r * c for r, c in dims)

    def test_hmmer_has_one_pair_per_query(self):
        from repro.perf.characterize import kernel_dimensions

        assert len(kernel_dimensions("hmmer")) >= 2  # multiple queries
        assert len(kernel_dimensions("fasta")) == 1  # one pair
