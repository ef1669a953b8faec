"""Tests for configuration objects and their validation."""

import dataclasses

import pytest

from repro import (
    CacheConfig,
    ConfigurationError,
    DEFAULT_MACHINE,
    MachineConfig,
    Scale,
    ScaleConfig,
)


class TestCacheConfig:
    def test_default_geometry(self):
        cfg = CacheConfig(64 * 1024, 4)
        assert cfg.line_bytes == 64
        assert cfg.n_sets == 256

    def test_n_sets_computed_from_geometry(self):
        cfg = CacheConfig(1024 * 1024, 8, line_bytes=64)
        assert cfg.n_sets == 2048

    def test_rejects_non_power_of_two_lines(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(64 * 1024, 4, line_bytes=48)

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(0, 4)

    def test_rejects_negative_assoc(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(64 * 1024, -1)

    def test_rejects_unaligned_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(100, 3, line_bytes=64)

    def test_is_frozen(self):
        cfg = CacheConfig(64 * 1024, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.size_bytes = 1


class TestMachineConfig:
    def test_paper_machine_defaults(self):
        """The default machine is the paper's evaluation processor."""
        m = DEFAULT_MACHINE
        assert m.issue_width == 4
        assert m.l1i.size_bytes == 64 * 1024
        assert m.l1d.size_bytes == 64 * 1024
        assert m.l1i.assoc == 4
        assert m.l2.size_bytes == 1024 * 1024

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(issue_width=0)

    def test_rejects_zero_mshrs(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(n_mshrs=0)

    def test_scaled_cache_resizes_all_levels(self):
        m = DEFAULT_MACHINE.scaled_cache(16, 256)
        assert m.l1i.size_bytes == 16 * 1024
        assert m.l1d.size_bytes == 16 * 1024
        assert m.l2.size_bytes == 256 * 1024

    def test_scaled_cache_preserves_other_fields(self):
        m = DEFAULT_MACHINE.scaled_cache(16, 256)
        assert m.issue_width == DEFAULT_MACHINE.issue_width
        assert m.memory_latency == DEFAULT_MACHINE.memory_latency


class TestScaleConfig:
    def test_three_scales_exist(self):
        assert Scale.PAPER.name == "paper"
        assert Scale.SCALED.name == "scaled"
        assert Scale.QUICK.name == "quick"

    def test_paper_uses_papers_literal_values(self):
        """DESIGN.md scaling map: PAPER keeps the published parameters."""
        p = Scale.PAPER
        assert p.smarts_detail == 1_000
        assert p.smarts_warmup == 3_000
        assert p.smarts_period == 1_000_000
        assert p.pgss_periods == (100_000, 1_000_000, 10_000_000)
        assert p.pgss_best_period == 1_000_000
        assert p.simpoint_intervals == (1_000_000, 10_000_000, 100_000_000)
        assert p.turbo_rel_error == 0.03
        assert p.turbo_confidence == 0.997

    def test_thresholds_match_paper(self):
        for scale in (Scale.PAPER, Scale.SCALED, Scale.QUICK):
            assert scale.thresholds == (0.05, 0.10, 0.15, 0.20, 0.25)

    def test_intervals_are_window_multiples(self):
        for scale in (Scale.PAPER, Scale.SCALED, Scale.QUICK):
            for interval in scale.simpoint_intervals + scale.pgss_periods:
                assert interval % scale.trace_window == 0

    def test_rejects_non_multiple_interval(self):
        with pytest.raises(ConfigurationError):
            ScaleConfig(
                name="bad",
                benchmark_ops=1000,
                smarts_detail=10,
                smarts_warmup=10,
                smarts_period=100,
                pgss_periods=(150,),
                pgss_best_period=150,
                pgss_spread=100,
                trace_window=100,
            )

    def test_rejects_empty_periods(self):
        with pytest.raises(ConfigurationError):
            ScaleConfig(
                name="bad",
                benchmark_ops=1000,
                smarts_detail=10,
                smarts_warmup=10,
                smarts_period=100,
                pgss_periods=(),
                pgss_best_period=100,
                pgss_spread=100,
            )

    def test_rejects_bad_confidence(self):
        with pytest.raises(ConfigurationError):
            ScaleConfig(
                name="bad",
                benchmark_ops=1000,
                smarts_detail=10,
                smarts_warmup=10,
                smarts_period=100,
                pgss_periods=(100,),
                pgss_best_period=100,
                pgss_spread=100,
                turbo_confidence=1.5,
                trace_window=100,
            )


class TestSampleBudget:
    """The shared from_scale helper (paper Table 1 parameters)."""

    def test_paper_values_match_table1(self):
        budget = Scale.PAPER.sample_budget
        assert budget.detail_ops == 1_000
        assert budget.warmup_ops == 3_000
        assert budget.rel_error == 0.03
        assert budget.confidence == 0.997
        assert Scale.PAPER.smarts_period == 1_000_000
        assert Scale.PAPER.pgss_spread == 1_000_000

    def test_from_scale_constructors_share_the_budget(self):
        """Smarts/TurboSmarts/Pgss derive identical sample parameters."""
        from repro.sampling import PgssConfig, SmartsConfig, TurboSmartsConfig

        for scale in (Scale.PAPER, Scale.SCALED, Scale.QUICK):
            budget = scale.sample_budget
            smarts = SmartsConfig.from_scale(scale)
            turbo = TurboSmartsConfig.from_scale(scale)
            pgss = PgssConfig.from_scale(scale)
            assert smarts.detail_ops == budget.detail_ops
            assert smarts.warmup_ops == budget.warmup_ops
            assert smarts.confidence == budget.confidence
            assert turbo.smarts == smarts
            assert turbo.rel_error == budget.rel_error
            assert turbo.confidence == budget.confidence
            assert pgss.detail_ops == budget.detail_ops
            assert pgss.warmup_ops == budget.warmup_ops
            assert pgss.rel_error == budget.rel_error
            assert pgss.confidence == budget.confidence

    def test_budget_is_validated(self):
        from repro import SampleBudget

        with pytest.raises(ConfigurationError):
            SampleBudget(0, 100, 0.03, 0.997)
        with pytest.raises(ConfigurationError):
            SampleBudget(1000, 3000, -0.1, 0.997)
        with pytest.raises(ConfigurationError):
            SampleBudget(1000, 3000, 0.03, 1.5)
