"""Tests for the statistics module: CIs, estimators, error metrics,
distribution diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.errors import ConfigurationError, SamplingError
from repro.stats import (
    arithmetic_mean,
    bimodality_coefficient,
    geometric_mean,
    histogram,
    modality_peaks,
    normal_ci,
    percent_error,
    required_samples,
    stratified_ratio_ipc,
    student_t_ci,
    t_value,
    z_value,
)

# Reference critical values (two-sided) from standard tables.
Z_REFERENCE = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758, 0.997: 2.9677}
T_REFERENCE = {  # (confidence, dof) -> t
    (0.95, 5): 2.5706,
    (0.95, 10): 2.2281,
    (0.99, 5): 4.0321,
    (0.997, 2): 18.2163,  # ~3-sigma confidence with 2 dof (scipy t.ppf)
}


class TestCriticalValues:
    @pytest.mark.parametrize("conf,expected", sorted(Z_REFERENCE.items()))
    def test_z_values_match_tables(self, conf, expected):
        assert z_value(conf) == pytest.approx(expected, abs=2e-3)

    @pytest.mark.parametrize("key,expected", sorted(T_REFERENCE.items()))
    def test_t_values_match_tables(self, key, expected):
        conf, dof = key
        assert t_value(conf, dof) == pytest.approx(expected, rel=2e-3)

    def test_t_approaches_z_for_large_dof(self):
        assert t_value(0.95, 500) == pytest.approx(z_value(0.95), rel=1e-3)

    def test_t_exceeds_z_for_small_dof(self):
        assert t_value(0.95, 3) > z_value(0.95)

    def test_t_values_match_scipy_on_the_bisection_range(self):
        """Every dof the bisection serves, at the confidences in use."""
        for conf in (0.90, 0.95, 0.99, 0.997):
            for dof in range(1, 201):
                expected = scipy_stats.t.ppf(0.5 + conf / 2.0, dof)
                assert t_value(conf, dof) == pytest.approx(expected, rel=1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            z_value(1.0)
        with pytest.raises(ConfigurationError):
            z_value(0.0)
        with pytest.raises(ConfigurationError):
            t_value(0.95, 0)

    @given(st.floats(min_value=0.5, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_z_monotonic_in_confidence(self, conf):
        assert z_value(conf + 0.0005) >= z_value(conf)


class TestConfidenceIntervals:
    def test_normal_ci_known_case(self):
        samples = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95]
        ci = normal_ci(samples, 0.95)
        arr = np.array(samples)
        expected = 1.96 * arr.std(ddof=1) / math.sqrt(len(samples))
        assert ci.mean == pytest.approx(arr.mean())
        assert ci.half_width == pytest.approx(expected, rel=1e-3)

    def test_single_sample_infinite_width(self):
        assert math.isinf(normal_ci([1.0]).half_width)
        assert math.isinf(student_t_ci([1.0]).half_width)

    def test_empty_samples(self):
        ci = normal_ci([])
        assert ci.n == 0
        assert math.isinf(ci.half_width)

    def test_t_wider_than_normal_small_n(self):
        samples = [1.0, 1.2, 0.8, 1.1]
        assert student_t_ci(samples, 0.99).half_width > normal_ci(
            samples, 0.99
        ).half_width

    def test_within_relative(self):
        ci = normal_ci([1.0, 1.001, 0.999, 1.0, 1.0005, 0.9995], 0.95)
        assert ci.within_relative(0.01)
        assert not ci.within_relative(1e-6)

    def test_bounds(self):
        ci = normal_ci([1.0, 2.0, 3.0], 0.95)
        assert ci.low == pytest.approx(ci.mean - ci.half_width)
        assert ci.high == pytest.approx(ci.mean + ci.half_width)

    def test_zero_mean_relative_is_inf(self):
        ci = normal_ci([-1.0, 1.0], 0.95)
        assert math.isinf(ci.relative_half_width)

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=4, max_size=100
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_ci_contains_mean(self, samples):
        ci = normal_ci(samples, 0.95)
        assert ci.low <= ci.mean <= ci.high

    def test_coverage_simulation(self):
        """~95% of CIs over Gaussian samples must contain the true mean."""
        rng = np.random.default_rng(1)
        hits = 0
        trials = 300
        for _ in range(trials):
            samples = rng.normal(5.0, 1.0, size=30)
            ci = normal_ci(samples, 0.95)
            if ci.low <= 5.0 <= ci.high:
                hits += 1
        assert 0.90 <= hits / trials <= 0.99

    def test_required_samples(self):
        # cv=0.3, 3% at ~3 sigma: (2.9677 * 0.3 / 0.03)^2 ~ 881.
        n = required_samples(0.3, 0.997, 0.03)
        assert 850 <= n <= 920

    def test_required_samples_validation(self):
        with pytest.raises(ConfigurationError):
            required_samples(-1.0)
        with pytest.raises(ConfigurationError):
            required_samples(0.5, rel_error=0)


class TestStratifiedEstimators:
    def test_no_samples_anywhere_raises(self):
        with pytest.raises(SamplingError):
            stratified_ratio_ipc({"a": 100}, {"a": []})

    def test_zero_total_ops_raises(self):
        with pytest.raises(SamplingError):
            stratified_ratio_ipc({}, {})

    def test_zero_cycle_stratum_uses_pooled_cpi(self):
        """A stratum whose samples add up to zero cycles has no CPI of its
        own: it counts as uncovered, like a stratum with no samples."""
        est = stratified_ratio_ipc(
            {"a": 500, "b": 500}, {"a": [(100, 200)], "b": [(100, 0)]}
        )
        assert est.ipc == pytest.approx(0.5)
        assert est.uncovered_weight == pytest.approx(0.5)
        assert "b" not in est.stratum_means

    def test_ratio_estimator_unbiased_for_mixed_samples(self):
        """The arithmetic-IPC estimator overestimates when samples span
        fast and slow micro-behaviour; the ratio estimator does not."""
        # One stratum: half its samples at IPC 2 (1000 ops/500 cyc), half
        # at IPC 0.1 (1000 ops/10000 cyc).  True IPC = 2000/10500 ~ 0.19.
        samples = [(1000, 500), (1000, 10_000)]
        est = stratified_ratio_ipc({"a": 10_000}, {"a": samples})
        assert est.ipc == pytest.approx(2000 / 10_500, rel=1e-6)
        naive = float(np.mean([ops / cycles for ops, cycles in samples]))
        assert naive > 2 * est.ipc  # the bias the paper's art/mcf hit

    def test_ratio_multi_strata(self):
        est = stratified_ratio_ipc(
            {"a": 500, "b": 500},
            {"a": [(100, 50)], "b": [(100, 400)]},
        )
        # CPI: a=0.5, b=4.0 -> mean CPI 2.25 -> IPC 1/2.25.
        assert est.ipc == pytest.approx(1 / 2.25)

    def test_ratio_uncovered_uses_pooled_cpi(self):
        est = stratified_ratio_ipc(
            {"a": 500, "b": 500}, {"a": [(100, 200)], "b": []}
        )
        assert est.ipc == pytest.approx(0.5)
        assert est.uncovered_weight == pytest.approx(0.5)

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=1, max_value=10_000),
            min_size=1,
        ),
        st.floats(min_value=0.05, max_value=4.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_uniform_performance_recovers_exactly(self, ops, ipc):
        """If every stratum truly runs at the same IPC, both estimators
        return that IPC regardless of weights."""
        ratio_samples = {k: [(1000, 1000 / ipc)] for k in ops}
        arithmetic = sum(
            w * float(np.mean([o / c for o, c in ratio_samples[k]]))
            for k, w in ops.items()
        ) / sum(ops.values())
        assert arithmetic == pytest.approx(ipc)
        assert stratified_ratio_ipc(ops, ratio_samples).ipc == pytest.approx(ipc)


class TestErrorMetrics:
    def test_percent_error(self):
        assert percent_error(1.1, 1.0) == pytest.approx(10.0)
        assert percent_error(0.9, 1.0) == pytest.approx(10.0)

    def test_percent_error_zero_truth(self):
        with pytest.raises(SamplingError):
            percent_error(1.0, 0.0)

    def test_means(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_floor(self):
        assert geometric_mean([0.0, 4.0]) > 0.0

    def test_empty_means_raise(self):
        with pytest.raises(SamplingError):
            arithmetic_mean([])
        with pytest.raises(SamplingError):
            geometric_mean([])

    def test_gmean_less_than_amean(self):
        vals = [1.0, 2.0, 30.0]
        assert geometric_mean(vals) < arithmetic_mean(vals)


class TestDistributions:
    def test_histogram_total(self):
        edges, counts = histogram([1, 2, 3, 4], bins=4)
        assert counts.sum() == 4
        assert len(edges) == 5

    def test_histogram_weights(self):
        edges, counts = histogram([0.0, 1.0], bins=2, weights=[10, 30])
        assert counts.sum() == 40

    def test_histogram_empty_raises(self):
        with pytest.raises(SamplingError):
            histogram([])

    def test_bimodality_gaussian_low(self):
        rng = np.random.default_rng(0)
        bc = bimodality_coefficient(rng.normal(size=5000))
        assert bc == pytest.approx(1 / 3, abs=0.05)

    def test_bimodality_two_modes_high(self):
        rng = np.random.default_rng(0)
        data = np.concatenate(
            [rng.normal(0, 0.1, 2500), rng.normal(3, 0.1, 2500)]
        )
        assert bimodality_coefficient(data) > 0.555

    def test_bimodality_needs_samples(self):
        with pytest.raises(SamplingError):
            bimodality_coefficient([1.0, 2.0])

    def test_bimodality_constant_zero(self):
        assert bimodality_coefficient([1.0] * 10) == 0.0

    def test_modality_peaks_bimodal(self):
        rng = np.random.default_rng(2)
        data = np.concatenate(
            [rng.normal(0.3, 0.05, 3000), rng.normal(1.2, 0.05, 3000)]
        )
        peaks = modality_peaks(data, bins=40)
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(0.3, abs=0.15)
        assert peaks[1] == pytest.approx(1.2, abs=0.15)

    def test_modality_peaks_unimodal(self):
        rng = np.random.default_rng(3)
        peaks = modality_peaks(rng.normal(1.0, 0.1, 5000), bins=30)
        assert len(peaks) == 1
