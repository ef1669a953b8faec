"""Tests for the extension experiments: tradeoff and stratification gain."""

from types import SimpleNamespace

import pytest

from repro.config import DEFAULT_MACHINE, Scale
from repro.experiments import ExperimentContext
from repro.experiments import stratification_gain, tradeoff


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return ExperimentContext(
        Scale.QUICK,
        cache_dir=tmp_path_factory.mktemp("extcache"),
        benchmarks=["164.gzip", "181.mcf"],
    )


class TestStratificationGain:
    def test_structure(self, ctx):
        result = stratification_gain.run(ctx)
        assert set(result["benchmarks"]) == set(ctx.benchmarks)
        for stats in result["benchmarks"].values():
            assert stats["unstratified_samples"] > 0
            assert stats["truth_samples"] > 0
            assert stats["detected_samples"] > 0

    def test_stratification_never_hurts_much(self, ctx):
        result = stratification_gain.run(ctx)
        for name, stats in result["benchmarks"].items():
            assert stats["truth_gain"] >= 0.9, name
            assert stats["detected_gain"] >= 0.9, name

    def test_format(self, ctx):
        text = stratification_gain.format_result(stratification_gain.run(ctx))
        assert "gain" in text
        assert "164.gzip" in text


class TestTradeoff:
    def test_curves_structure(self, ctx):
        result = tradeoff.run(ctx)
        assert len(result["smarts"]) == len(tradeoff.SMARTS_PERIOD_FACTORS)
        assert len(result["smarts_cold"]) == len(tradeoff.SMARTS_PERIOD_FACTORS)
        assert len(result["pgss"]) == len(tradeoff.PGSS_SPREAD_FACTORS)

    def test_smarts_detail_falls_with_period(self, ctx):
        result = tradeoff.run(ctx)
        details = [p["mean_detailed_ops"] for p in result["smarts"]]
        assert details == sorted(details, reverse=True)

    def test_cold_sampling_worse(self, ctx):
        result = tradeoff.run(ctx)
        # At the dense periods — where sampling noise is small enough for
        # the bias to dominate — cold fast-forward is clearly worse.  At
        # the sparse end of the QUICK scale a dozen samples of noise can
        # swamp the bias, so only the densest point is asserted.
        warm = result["smarts"][0]
        cold = result["smarts_cold"][0]
        assert cold["a_mean_error"] > warm["a_mean_error"]

    @pytest.mark.parametrize(
        "scale", (Scale.QUICK, Scale.SCALED, Scale.PAPER), ids=lambda s: s.name
    )
    def test_sweep_points_are_distinct(self, scale):
        """A clamped factor can land on another's point (PGSS spreads
        below the period, at SCALED and PAPER); every sweep then lists
        each point once, in order, and no cell is scheduled twice."""
        at = SimpleNamespace(
            scale=scale, machine=DEFAULT_MACHINE, benchmarks=["164.gzip"]
        )
        sweeps = {
            "smarts": tradeoff._smarts_periods(at),
            "pgss": tradeoff._pgss_spreads(at),
            "stratified": tradeoff._stratified_budgets(at),
            "ranked": list(tradeoff.RANKED_SET_SIZES),
        }
        for name, points in sweeps.items():
            assert points == sorted(set(points)), name
        if scale is Scale.PAPER:
            assert sweeps["pgss"] == [1_000_000, 2_000_000, 4_000_000]
        ids = [cell.cell_id for cell in tradeoff.cells(at)]
        assert len(ids) == len(set(ids))

    def test_format(self, ctx):
        text = tradeoff.format_result(tradeoff.run(ctx))
        assert "SMARTS (cold FF)" in text
        assert "PGSS" in text
