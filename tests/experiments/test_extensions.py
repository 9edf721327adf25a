"""Tests for the extension experiment and the ablations."""

import pytest

from repro.engine.cache import use_cache_dir
from repro.errors import SimulationError
from repro.experiments import ablations, ext_phylip
from repro.kernels import parsimony


class TestExtPhylip:
    @pytest.fixture(scope="class")
    def data(self):
        return ext_phylip.run().data

    def test_isel_helps_substantially(self, data):
        assert data["hand_isel"] > 0.3
        assert data["comp_isel"] > 0.3

    def test_max_is_useless_here(self, data):
        """The SVIII sharpening: the max instruction cannot express the
        Fitch conditional, so the max variants gain nothing."""
        assert abs(data["hand_max"]) < 0.02
        assert abs(data["comp_max"]) < 0.02

    def test_compiler_matches_combination(self, data):
        assert data["comp_isel"] == pytest.approx(data["combination"])

    def test_diverged_score_raises_naming_the_variant(
        self, monkeypatch, tmp_path, restore_globals
    ):
        """The semantic check is a raised error, so ``python -O`` keeps
        it. It runs on a fresh cache: the ``data`` fixture has already
        stored the results this check guards in the default one."""
        use_cache_dir(tmp_path)
        monkeypatch.setattr(
            parsimony, "run", lambda variant, *args, **kw: -1
        )
        with pytest.raises(SimulationError, match="parsimony baseline"):
            ext_phylip.run()
        # Nothing was stored, so the next run checks again.
        assert not any(tmp_path.rglob("*.json"))


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run()

    def test_all_tables_render(self, result):
        text = result.render()
        assert "BTAC entries" in text
        assert "confidence threshold" in text
        assert "history bits" in text
        assert "SMT" in text

    def test_btac_size_knee_at_paper_choice(self, result):
        """8 entries captures most of the achievable gain."""
        size_table = result.tables[0]
        gains = {
            int(row[0]): float(row[1].rstrip("%"))
            for row in size_table.rows
        }
        assert gains[8] >= 0.8 * gains[32]
        assert gains[2] < gains[8]

    def test_history_insensitive(self, result):
        """The paper's premise: better direction prediction would not
        rescue these value-dependent branches."""
        predictor_table = result.tables[2]
        ipcs = [float(row[1]) for row in predictor_table.rows]
        assert max(ipcs) - min(ipcs) < 0.15

    def test_smt_bubble_hurts_and_btac_recovers(self, result):
        smt_table = result.tables[3]
        for row in smt_table.rows:
            slowdown = float(row[1].rstrip("%"))
            recovered = float(row[2].rstrip("%"))
            assert slowdown > 5.0
            assert recovered > 5.0


class TestExtCmpLlc:
    def test_shared_needs_less_bandwidth(self):
        """Ref [26]'s claim at reduced scale."""
        from repro.experiments import ext_cmp_llc

        result = ext_cmp_llc.run(workers=2)
        assert result.data["ratio"] > 1.5
        assert result.data["private_misses"] > result.data["shared_misses"]


class TestExtAccel:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_accel

        return ext_accel.run()

    def test_claim_holds_as_data(self, result):
        """The scenario pack's verdict is data, not prose: offload
        loses class A and wins by class C on every app,
        monotonically in both ratio and overhead share."""
        data = result.data
        assert data["claim_holds"] is True
        for app, entry in data["apps"].items():
            ratios = [
                entry["classes"][cls]["ratio"] for cls in ("A", "B", "C")
            ]
            assert ratios[0] < 1.0 < ratios[-1], app
            assert ratios == sorted(ratios), app
            assert entry["crossover_class"] in ("B", "C"), app

    def test_fasta_crosses_over_earliest(self, result):
        """The most cell-heavy workload per job amortises the offload
        overheads first."""
        crossovers = {
            app: entry["crossover_class"]
            for app, entry in result.data["apps"].items()
        }
        assert crossovers["fasta"] == "B"
        assert all(c == "C" for app, c in crossovers.items()
                   if app != "fasta")

    def test_overhead_share_falls_with_class(self, result):
        for app, entry in result.data["apps"].items():
            shares = [
                entry["classes"][cls]["overhead_share"]
                for cls in ("A", "B", "C")
            ]
            assert shares == sorted(shares, reverse=True), app

    def test_tables_render(self, result):
        text = result.render()
        assert "Crossover" in text
        assert "tuned CPU vs offload" in text
