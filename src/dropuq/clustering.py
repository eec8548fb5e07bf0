"""Grouping sampled detections into instance clusters.

The pipeline labels the N x M detections of one image: boxes -> connected
components of the box-overlap graph -> per component, count heuristic and
mixture fit (or Ward linkage) -> oversized-cluster split rule -> one label
per detection and one split flag per cluster. Cluster i's members are
``s.take(model.label_groups(labels)[i])``.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import SampleSet, label_groups

__all__ = [
    "estimate_component_count",
    "default_split_threshold",
    "overlap_components",
    "split_labels",
    "cluster_pipeline",
]

_MAX_SPLIT_DEPTH = 3  # recursion cap for the oversized-cluster split rule
_BLOCK_PAIRS = 1 << 20  # memory cap: box pairs compared at once by overlap_components
_BLOCK_ROWS = 64  # rows per overlap_components block when the cap allows
# bgm and ward, which import scipy, are imported where a fit runs, so a run
# that needs no fit loads none of the three: with bytecode writing off each
# module loaded is compiled.


def estimate_component_count(n_detections: int, n_repetitions: int) -> int:
    """Detections divided by repetitions, rounded half-up, at least 1."""
    if n_repetitions < 1:
        raise ValueError(f"n_repetitions must be >= 1, got {n_repetitions}")
    if n_detections == 0:
        raise ValueError("nothing to cluster: 0 detections")
    return max(1, (2 * n_detections + n_repetitions) // (2 * n_repetitions))


def default_split_threshold(n_repetitions: int) -> int:
    """1.5 x the repetition count, rounded half-up.

    One instance yields about one detection per repetition, so a cluster
    this much larger than the repetition count holds more than one.
    """
    if n_repetitions < 1:
        raise ValueError(f"n_repetitions must be >= 1, got {n_repetitions}")
    return (3 * n_repetitions + 1) // 2


def overlap_components(points: np.ndarray) -> np.ndarray:
    """Connected components of the overlap graph of an (n, 4) box matrix.

    Two boxes are joined when they intersect with positive area; boxes that
    only touch are not. Components are numbered 0, 1, ... in the order of
    their first row. Memory is linear in n: boxes are sorted by x1 and
    compared a block of rows at a time, each block only against the boxes
    whose x-extent can reach it.

    A block holds _BLOCK_ROWS rows, or fewer where rows x n would exceed
    _BLOCK_PAIRS. Short blocks let the x-window prune, since a block that
    spans the image reaches every box; much shorter ones spend more on
    per-block numpy calls than they save in pairs.
    """
    n = points.shape[0]
    order = np.argsort(points[:, 0], kind="stable")
    x1, y1, x2, y2 = points[order].T
    reach = np.maximum.accumulate(x2)  # rightmost end among the boxes so far
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_PAIRS // max(n, 1)))
    windows = []
    for s in range(0, n, rows):
        e = min(s + rows, n)
        # Earlier boxes end left of x1[s], later ones start right of the
        # block's rightmost end: neither can overlap a box of the block.
        lo = int(np.searchsorted(reach, x1[s], side="right"))
        hi = int(np.searchsorted(x1, x2[s:e].max(), side="left"))
        windows.append((s, e, min(lo, s), max(hi, e)))
    # Min-label propagation with pointer jumping. label[p] is always a
    # sorted position in p's component and never above p, so it settles
    # at the component's first sorted position.
    label = np.arange(n)
    while True:
        new = label.copy()
        for s, e, lo, hi in windows:
            adj = (np.minimum(x2[s:e, None], x2[lo:hi]) > np.maximum(x1[s:e, None], x1[lo:hi])) & (
                np.minimum(y2[s:e, None], y2[lo:hi]) > np.maximum(y1[s:e, None], y1[lo:hi])
            )
            new[s:e] = np.minimum(new[s:e], np.where(adj, new[lo:hi], n).min(axis=1))
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    root = np.empty(n, dtype=np.int64)
    root[order] = label
    _, first, inverse = np.unique(root, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _mixture_labels(points: np.ndarray, k_max: int, seed: int) -> np.ndarray:
    """The mixture fit's labels; a fit stopped at the iteration cap warns."""
    from . import bgm

    state = bgm.fit_bgm(points, k_max, seed)
    if not state.converged:
        warnings.warn(
            f"mixture fit on {len(points)} points did not converge within the cap of "
            f"{bgm._MAX_ITERS} iterations; its labels are used as they stand",
            bgm.ConvergenceWarning,
        )
    return state.labels


def split_labels(
    points: np.ndarray, labels: Sequence[int], n_repetitions: int, threshold: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Split rule: refit each label group of more than ``threshold`` rows of
    an (n, 4) box matrix with the mixture on its own boxes, in row order
    (upper limit from the count heuristic, at least 2), and each part again,
    to a depth of _MAX_SPLIT_DEPTH; a group that will not break apart stays
    whole and is flagged. Returns one int64 label per row, numbered by input
    label and then part, depth first, and one split_refused flag per label.
    """
    parts: List[Tuple[np.ndarray, bool]] = []

    def split(idx: np.ndarray, depth: int) -> None:
        if idx.size > threshold and depth < _MAX_SPLIT_DEPTH:
            k_max = max(2, estimate_component_count(idx.size, n_repetitions))
            sub = _mixture_labels(points[idx], k_max, seed)
            present = np.flatnonzero(np.bincount(sub))
            if present.size > 1:
                for label in present:
                    split(idx[sub == label], depth + 1)
                return
        parts.append((idx, idx.size > threshold))  # refused when still oversized

    for group in label_groups(labels):
        split(group, 0)
    out = np.empty(len(labels), dtype=np.int64)
    for i, (idx, _) in enumerate(parts):
        out[idx] = i
    return out, np.array([refused for _, refused in parts], dtype=bool)


def cluster_pipeline(
    s: SampleSet, algorithm: str = "bgm", split_threshold: Optional[int] = None, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Full clustering of one image's sampled detections with ``algorithm``
    "bgm" or "agg": one int64 cluster id per detection and one split_refused
    flag per cluster.

    Boxes that never overlap cannot be one instance, so the detections are
    first split into the connected components of their box-overlap graph
    (overlap_components) and each component is clustered on its own, with
    its own count heuristic h. For the mixture the component upper limit
    gets headroom over the heuristic (max(2*h, h+2)) and unused components
    are pruned by the stick-breaking prior; the agglomerative comparator
    uses min(h, size) directly. A component with h = 1 and no more members
    than the split threshold (default_split_threshold when None) is one
    cluster without a fit. Labels are offset per component, so clusters are
    ordered by component, then by label within it; split_labels then runs
    over all of them.
    """
    if algorithm not in ("bgm", "agg"):
        raise ValueError(f"algorithm must be 'bgm' or 'agg', got {algorithm!r}")
    if split_threshold is not None and split_threshold < 1:
        raise ValueError(f"split_threshold must be >= 1, got {split_threshold}")
    if not len(s):
        raise ValueError("nothing to cluster: 0 detections")
    points = s.boxes
    threshold = split_threshold or default_split_threshold(s.n_repetitions)
    labels = np.empty(len(points), dtype=np.int64)
    offset = 0
    for idx in label_groups(overlap_components(points)):
        heuristic = estimate_component_count(idx.size, s.n_repetitions)
        if heuristic == 1 and idx.size <= threshold:
            part = np.zeros(idx.size, dtype=np.int64)
        elif algorithm == "bgm":
            part = _mixture_labels(points[idx], max(2 * heuristic, heuristic + 2), seed)
        else:
            from .ward import fit_agglomerative

            part = fit_agglomerative(points[idx], min(heuristic, idx.size))
        labels[idx] = offset + part
        offset += int(part.max()) + 1
    return split_labels(points, labels, s.n_repetitions, threshold, seed)
