import itertools

import numpy as np
import pytest

from dropuq.synth import adjusted_rand_index
from dropuq.ward import fit_agglomerative


def brute_force_ward(points, k):
    """Greedy Ward oracle straight from the centroid formula: repeatedly
    merge the pair with the smallest increase 2*|A||B|/(|A|+|B|)*d(cA,cB)^2,
    ties toward the smallest pair indices."""
    clusters = [[i] for i in range(len(points))]
    centroids = [np.asarray(p, dtype=float) for p in points]
    sizes = [1.0] * len(points)
    while len(clusters) > k:
        best = None
        for i, j in itertools.combinations(range(len(clusters)), 2):
            cost = (
                2.0
                * sizes[i]
                * sizes[j]
                / (sizes[i] + sizes[j])
                * float(np.sum((centroids[i] - centroids[j]) ** 2))
            )
            if best is None or cost < best[0]:
                best = (cost, i, j)
        _, i, j = best
        total = sizes[i] + sizes[j]
        centroids[i] = (sizes[i] * centroids[i] + sizes[j] * centroids[j]) / total
        clusters[i] += clusters[j]
        sizes[i] = total
        del clusters[j], centroids[j], sizes[j]
    labels = np.empty(len(points), dtype=int)
    for ci, members in enumerate(clusters):
        labels[members] = ci
    return labels


def blobs(centers, n_each, sigma, seed):
    rng = np.random.default_rng(seed)
    pts, labels = [], []
    for i, c in enumerate(centers):
        pts.append(rng.normal(0.0, sigma, (n_each, 4)) + np.asarray(c, dtype=float))
        labels += [i] * n_each
    return np.vstack(pts), np.array(labels)


class TestFitAgglomerative:
    def test_k_equals_n(self):
        x = np.random.default_rng(0).normal(0, 1, (7, 4))
        assert fit_agglomerative(x, 7).tolist() == list(range(7))

    def test_k_one(self):
        x = np.random.default_rng(1).normal(0, 1, (9, 4))
        assert set(fit_agglomerative(x, 1).tolist()) == {0}

    def test_k_out_of_range(self):
        x = np.ones((3, 4))
        with pytest.raises(ValueError):
            fit_agglomerative(x, 4)
        with pytest.raises(ValueError):
            fit_agglomerative(x, 0)

    def test_two_separated_blobs(self):
        x, labels = blobs([(0, 0, 10, 10), (500, 500, 540, 560)], 50, 2.0, seed=3)
        got = fit_agglomerative(x, 2)
        assert adjusted_rand_index(labels, got) == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(3, 22))
            x = rng.normal(0, 10, (n, 4))
            for k in {1, 2, 3, max(1, n // 2), n}:
                if k > n:
                    continue
                mine = fit_agglomerative(x, k)
                oracle = brute_force_ward(x, k)
                assert adjusted_rand_index(mine, oracle) == 1.0, (trial, n, k)

    def test_deterministic(self):
        x = np.random.default_rng(5).normal(0, 5, (40, 4))
        assert np.array_equal(fit_agglomerative(x, 4), fit_agglomerative(x, 4))

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 5, (30, 4))
        perm = rng.permutation(30)
        base = fit_agglomerative(x, 3)
        permuted = fit_agglomerative(x[perm], 3)
        assert adjusted_rand_index(base[perm], permuted) == 1.0

    def test_translation_equivariant(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 5, (30, 4))
        shifted = fit_agglomerative(x + 37.25, 3)
        assert adjusted_rand_index(fit_agglomerative(x, 3), shifted) == 1.0


class TestTiedHeights:
    """Equal merge heights must still cut into exactly k clusters."""

    def test_square_corners(self):
        # Four equal nearest-neighbour distances: the first merge ties four ways.
        x = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]], dtype=float)
        for k in range(1, 5):
            assert len(set(fit_agglomerative(x, k).tolist())) == k

    def test_duplicate_point_groups(self):
        # Every within-group merge has height 0.
        centers = np.array([[0, 0, 5, 5], [40, 0, 45, 5], [0, 40, 5, 45]], dtype=float)
        x = np.repeat(centers, [5, 3, 4], axis=0)
        truth = np.repeat([0, 1, 2], [5, 3, 4])
        got = fit_agglomerative(x, 3)
        assert got.tolist() == truth.tolist()
        assert adjusted_rand_index(truth, got) == 1.0
        for k in range(1, len(x) + 1):
            assert len(set(fit_agglomerative(x, k).tolist())) == k
