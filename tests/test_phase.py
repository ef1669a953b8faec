"""Tests for phase profiles, the online classifier, threshold analysis,
and the adaptive threshold selector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SamplingError
from repro.phase import (
    AdaptiveThresholdSelector,
    OnlinePhaseClassifier,
    PhaseProfile,
    consecutive_changes,
    detection_rate,
    false_positive_rate,
    phase_statistics,
    region_counts,
)


def unit(index: int, dim: int = 32) -> np.ndarray:
    vec = np.zeros(dim)
    vec[index] = 1.0
    return vec


def blend(i: int, j: int, w: float, dim: int = 32) -> np.ndarray:
    vec = np.zeros(dim)
    vec[i] = math.cos(w)
    vec[j] = math.sin(w)
    return vec


class TestPhaseProfile:
    def test_representative_is_unit_norm(self):
        p = PhaseProfile(0, unit(3))
        p.add_vector(unit(4), 100)
        assert np.linalg.norm(p.representative) == pytest.approx(1.0)

    def test_representative_averages_members(self):
        p = PhaseProfile(0, unit(0))
        p.add_vector(unit(1), 100)
        rep = p.representative
        assert rep[0] == pytest.approx(rep[1])

    def test_ops_attribution(self):
        p = PhaseProfile(0, unit(0))
        p.add_vector(unit(0), 100)
        p.add_ops(50)
        assert p.ops == 150

    def test_sample_recording(self):
        p = PhaseProfile(0, unit(0))
        p.add_sample(1.5, op_offset=1000, ops=1000, cycles=667)
        assert p.n_samples == 1
        assert p.last_sample_op == 1000
        assert p.mean_ipc == pytest.approx(1.5)
        assert p.ratio_ipc == pytest.approx(1000 / 667)

    def test_sample_without_counts_uses_pseudo(self):
        p = PhaseProfile(0, unit(0))
        p.add_sample(2.0, op_offset=10)
        assert p.ratio_ipc == pytest.approx(2.0)

    def test_within_bounds_needs_min_samples(self):
        p = PhaseProfile(0, unit(0))
        p.add_sample(1.0, 0)
        p.add_sample(1.0, 1)
        assert not p.within_bounds(min_samples=3)

    def test_within_bounds_tight_samples(self):
        p = PhaseProfile(0, unit(0))
        for i in range(5):
            p.add_sample(1.0 + 1e-6 * i, i)
        assert p.within_bounds(rel_error=0.03, min_samples=3)

    def test_within_bounds_noisy_samples(self):
        p = PhaseProfile(0, unit(0))
        for i, ipc in enumerate([0.5, 2.0, 0.7, 1.8]):
            p.add_sample(ipc, i)
        assert not p.within_bounds(rel_error=0.03, min_samples=3)


class TestClassifier:
    def test_first_observation_creates_phase_zero(self):
        c = OnlinePhaseClassifier(0.05 * math.pi)
        d = c.observe(unit(0), 100)
        assert d.phase_id == 0 and d.created
        assert c.n_phases == 1

    def test_similar_vector_stays_in_phase(self):
        c = OnlinePhaseClassifier(0.1 * math.pi)
        c.observe(unit(0), 100)
        d = c.observe(blend(0, 1, 0.05), 100)
        assert d.phase_id == 0
        assert not d.changed and not d.created

    def test_orthogonal_vector_creates_new_phase(self):
        c = OnlinePhaseClassifier(0.1 * math.pi)
        c.observe(unit(0), 100)
        d = c.observe(unit(1), 100)
        assert d.phase_id == 1 and d.created and d.changed

    def test_returning_to_known_phase_matches_not_creates(self):
        c = OnlinePhaseClassifier(0.1 * math.pi)
        c.observe(unit(0), 100)
        c.observe(unit(1), 100)
        d = c.observe(unit(0), 100)
        assert d.phase_id == 0
        assert d.changed and not d.created
        assert c.n_phases == 2

    def test_compares_last_bbv_first(self):
        """A drifting sequence where each step is under threshold stays in
        one phase even when the total drift exceeds it (the last-BBV rule
        from Fig. 5)."""
        c = OnlinePhaseClassifier(0.12 * math.pi)
        for step in range(8):
            d = c.observe(blend(0, 1, step * 0.1), 100)
        assert c.n_phases == 1
        assert d.phase_id == 0

    def test_change_counting(self):
        c = OnlinePhaseClassifier(0.05 * math.pi)
        for vec in (unit(0), unit(1), unit(0), unit(1)):
            c.observe(vec, 10)
        assert c.n_changes == 3
        assert c.n_observations == 4

    def test_ops_per_phase(self):
        c = OnlinePhaseClassifier(0.05 * math.pi)
        c.observe(unit(0), 100)
        c.observe(unit(0), 50)
        c.observe(unit(1), 25)
        assert c.ops_per_phase() == {0: 150, 1: 25}

    def test_zero_threshold_every_period_new_phase(self):
        c = OnlinePhaseClassifier(0.0)
        c.observe(unit(0), 10)
        d = c.observe(unit(0), 10)
        # distance 0 is not < 0, so even identical vectors split.
        assert d.phase_id == 1

    def test_huge_threshold_single_phase(self):
        c = OnlinePhaseClassifier(math.pi)
        for vec in (unit(0), unit(1), unit(2)):
            c.observe(vec, 10)
        assert c.n_phases == 1

    def test_manhattan_metric(self):
        c = OnlinePhaseClassifier(0.5, metric="manhattan")
        c.observe(unit(0), 10)
        d = c.observe(unit(1), 10)
        assert d.created

    def test_rejects_bad_metric(self):
        with pytest.raises(ConfigurationError):
            OnlinePhaseClassifier(0.1, metric="hamming")

    def test_rejects_negative_threshold(self):
        with pytest.raises(ConfigurationError):
            OnlinePhaseClassifier(-0.1)

    def test_angle_threshold_cannot_exceed_pi(self):
        with pytest.raises(ConfigurationError):
            OnlinePhaseClassifier(4.0, metric="angle")

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_phase_count_bounded_by_distinct_vectors(self, sequence):
        c = OnlinePhaseClassifier(0.05 * math.pi)
        for idx in sequence:
            c.observe(unit(idx), 10)
        assert c.n_phases <= len(set(sequence))
        total = sum(c.ops_per_phase().values())
        assert total == 10 * len(sequence)


class TestThresholdAnalysis:
    def _pairs(self):
        bbvs = [unit(0), unit(0), unit(1), unit(1), unit(0)]
        ipcs = [1.0, 1.0, 2.0, 2.0, 1.0]
        return consecutive_changes(bbvs, ipcs)

    def test_consecutive_changes_length(self):
        assert len(self._pairs()) == 4

    def test_changes_normalised_by_sigma(self):
        pairs = self._pairs()
        sigma = np.std([1.0, 1.0, 2.0, 2.0, 1.0])
        assert pairs[1].ipc_sigma == pytest.approx(1.0 / sigma)
        assert pairs[0].ipc_sigma == 0.0

    def test_region_counts_sum(self):
        pairs = self._pairs()
        counts = region_counts(pairs, 0.05 * math.pi, 0.3)
        assert sum(counts.values()) == len(pairs)

    def test_perfect_detection_here(self):
        pairs = self._pairs()
        # Orthogonal BBV flips accompany every IPC change.
        assert detection_rate(pairs, 0.05 * math.pi, 0.3) == 1.0
        assert false_positive_rate(pairs, 0.05 * math.pi, 0.3) == 0.0

    def test_blind_threshold_misses_everything(self):
        pairs = self._pairs()
        assert detection_rate(pairs, math.pi, 0.3) == 0.0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(SamplingError):
            consecutive_changes([unit(0)], [1.0, 2.0])

    def test_constant_ipc_no_significant_changes(self):
        bbvs = [unit(0), unit(1), unit(0)]
        pairs = consecutive_changes(bbvs, [1.0, 1.0, 1.0])
        assert detection_rate(pairs, 0.05 * math.pi, 0.3) == 1.0  # vacuous
        assert false_positive_rate(pairs, 0.05 * math.pi, 0.3) == 1.0

    def test_phase_statistics_basic(self):
        bbvs = [unit(0)] * 5 + [unit(1)] * 5
        ipcs = [1.0] * 5 + [2.0] * 5
        ops = [100] * 10
        stats = phase_statistics(bbvs, ipcs, ops, 0.05 * math.pi)
        assert stats.n_phases == 2
        assert stats.n_changes == 1
        assert stats.mean_interval_ops == pytest.approx(500)

    def test_phase_statistics_variation_rises_with_threshold(self):
        rng = np.random.default_rng(0)
        bbvs, ipcs = [], []
        for i in range(60):
            which = (i // 5) % 2
            vec = unit(which) + rng.normal(0, 0.02, 32)
            bbvs.append(np.abs(vec))
            ipcs.append(1.0 + which + rng.normal(0, 0.02))
        ops = [100] * 60
        tight = phase_statistics(bbvs, ipcs, ops, 0.05 * math.pi)
        loose = phase_statistics(bbvs, ipcs, ops, 0.9 * math.pi)
        assert loose.n_phases <= tight.n_phases
        assert loose.ipc_variation >= tight.ipc_variation

    def test_phase_statistics_validates_lengths(self):
        with pytest.raises(SamplingError):
            phase_statistics([unit(0)], [1.0, 2.0], [10], 0.1)


class TestAdaptiveSelector:
    def _bbvs_two_phase(self, n=40):
        return [unit(0) if (i // 10) % 2 == 0 else unit(1) for i in range(n)]

    def test_selects_a_candidate(self):
        selector = AdaptiveThresholdSelector()
        choice = selector.select(self._bbvs_two_phase())
        assert choice in selector.candidates

    def test_prefers_tight_usable_threshold(self):
        selector = AdaptiveThresholdSelector()
        choice = selector.select(self._bbvs_two_phase())
        assert choice == 0.05  # clean two-phase stream: tightest works

    def test_churny_stream_picks_looser(self):
        rng = np.random.default_rng(5)
        # Heavy per-period noise: tight thresholds see phase churn.
        bbvs = [np.abs(unit(0) + rng.normal(0, 0.4, 32)) for _ in range(60)]
        selector = AdaptiveThresholdSelector()
        choice = selector.select(bbvs)
        assert choice > 0.05

    def test_evaluate_rows(self):
        selector = AdaptiveThresholdSelector(candidates=(0.05, 0.25))
        rows = selector.evaluate(self._bbvs_two_phase())
        assert len(rows) == 2
        assert {r["threshold"] for r in rows} == {0.05, 0.25}

    def test_needs_enough_periods(self):
        with pytest.raises(ConfigurationError):
            AdaptiveThresholdSelector().select([unit(0)] * 3)

    def test_rejects_empty_candidates(self):
        with pytest.raises(ConfigurationError):
            AdaptiveThresholdSelector(candidates=())

    def test_rejects_out_of_range_candidates(self):
        with pytest.raises(ConfigurationError):
            AdaptiveThresholdSelector(candidates=(0.0,))
