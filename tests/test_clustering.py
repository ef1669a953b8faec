"""Tests for k-means and BIC model selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import bic_score, choose_k, kmeans
from repro.errors import ClusteringError


def two_blobs(n=60, sep=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, size=(n // 2, 4))
    b = rng.normal(sep, 0.3, size=(n // 2, 4))
    return np.vstack([a, b])


class TestKMeans:
    def test_recovers_two_blobs(self):
        data = two_blobs()
        result = kmeans(data, 2, seed=1)
        labels = result.labels
        # All first-half points together, all second-half together.
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[-1]

    def test_centroids_near_blob_means(self):
        data = two_blobs()
        result = kmeans(data, 2, seed=1)
        centroid_means = sorted(result.centroids.mean(axis=1))
        assert centroid_means[0] == pytest.approx(0.0, abs=0.3)
        assert centroid_means[1] == pytest.approx(10.0, abs=0.3)

    def test_k_equals_one(self):
        data = two_blobs()
        result = kmeans(data, 1)
        assert (result.labels == 0).all()
        assert result.centroids[0] == pytest.approx(data.mean(axis=0))

    def test_k_equals_n(self):
        data = np.arange(10, dtype=float).reshape(5, 2)
        result = kmeans(data, 5, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)
        assert sorted(result.labels) == [0, 1, 2, 3, 4]

    def test_inertia_non_increasing_in_k(self):
        data = two_blobs(n=80)
        inertias = [kmeans(data, k, n_restarts=5, seed=3).inertia for k in (1, 2, 4, 8)]
        for a, b in zip(inertias, inertias[1:]):
            assert b <= a + 1e-9

    def test_deterministic_for_seed(self):
        data = two_blobs()
        r1 = kmeans(data, 3, seed=42)
        r2 = kmeans(data, 3, seed=42)
        assert (r1.labels == r2.labels).all()
        assert r1.inertia == r2.inertia

    def test_representative_indices_closest_to_centroid(self):
        data = two_blobs()
        result = kmeans(data, 2, seed=1)
        reps = result.representative_indices()
        for c in range(2):
            rep = reps[c]
            assert result.labels[rep] == c
            members = np.where(result.labels == c)[0]
            d_rep = np.sum((data[rep] - result.centroids[c]) ** 2)
            for m in members:
                d_m = np.sum((data[m] - result.centroids[c]) ** 2)
                assert d_rep <= d_m + 1e-9

    def test_cluster_sizes_sum_to_n(self):
        data = two_blobs()
        result = kmeans(data, 3, seed=2)
        assert result.cluster_sizes().sum() == len(data)

    def test_invalid_k(self):
        data = two_blobs()
        with pytest.raises(ClusteringError):
            kmeans(data, 0)
        with pytest.raises(ClusteringError):
            kmeans(data, len(data) + 1)

    def test_empty_input(self):
        with pytest.raises(ClusteringError):
            kmeans(np.empty((0, 3)), 1)

    def test_identical_points(self):
        data = np.ones((20, 4))
        result = kmeans(data, 3, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=10, max_value=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_labels_always_valid(self, k, n):
        rng = np.random.default_rng(n * 7 + k)
        data = rng.normal(size=(n, 3))
        result = kmeans(data, min(k, n), n_restarts=2, seed=0)
        assert result.labels.min() >= 0
        assert result.labels.max() < result.k
        assert result.labels.shape == (n,)


class TestBic:
    def test_bic_prefers_true_k(self):
        data = two_blobs(n=80, sep=12.0)
        k, scores = choose_k(data, max_k=6, seed=1)
        assert k == 2
        assert scores[2] >= scores[1]

    def test_bic_score_higher_for_better_fit(self):
        data = two_blobs(n=80, sep=12.0)
        r1 = kmeans(data, 1, seed=0)
        r2 = kmeans(data, 2, seed=0)
        assert bic_score(data, r2) > bic_score(data, r1)

    def test_bic_requires_enough_points(self):
        data = np.ones((3, 2))
        result = kmeans(data, 3, seed=0)
        with pytest.raises(ClusteringError):
            bic_score(data, result)

    def test_choose_k_requires_points(self):
        with pytest.raises(ClusteringError):
            choose_k(np.ones((2, 2)))
