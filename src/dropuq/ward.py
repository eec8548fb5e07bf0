"""Agglomerative hierarchical clustering with Ward linkage.

Bottom-up merging on Euclidean distance with scipy's Ward linkage, which
runs the nearest-neighbor chain algorithm (Müllner, arXiv:1109.2378).
Its merges are sorted by height, so applying the first n - k of them
cuts the dendrogram into exactly k clusters, also when heights tie.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_POINTS", "fit_agglomerative"]

MAX_POINTS = 8192  # linkage's distance matrix grows as n^2: 586 MB at 8000 points


def fit_agglomerative(points: np.ndarray, k: int) -> np.ndarray:
    """Cluster an (n, D) matrix into exactly k groups with Ward linkage.

    Labels are dense integers numbered by first occurrence in point order.
    More than MAX_POINTS points is a ValueError.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"points must be a non-empty 2-D matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("points contain non-finite values")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == n:
        return np.arange(n, dtype=np.int64)
    if n > MAX_POINTS:
        raise ValueError(
            f"Ward linkage on a component of {n} points exceeds the cap of {MAX_POINTS}; "
            "use --algorithm bgm, whose memory is linear"
        )

    # Imported here: scipy.cluster loads scipy.spatial (60-90 ms on a 2-core
    # machine), which commands that never run Ward should not pay at start-up.
    from scipy.cluster.hierarchy import linkage

    merges = linkage(X, method="ward")[: n - k, :2].astype(np.int64)
    # Row i merges clusters a and b into the new cluster n + i.
    group = np.arange(n)
    for i, (a, b) in enumerate(merges):
        group[(group == a) | (group == b)] = n + i
    _, first, inverse = np.unique(group, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first)).astype(np.int64)[inverse]
