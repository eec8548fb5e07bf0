"""Grouping sampled detections into instance clusters.

The pipeline turns the N x M detections of one image into instance clusters:
box features -> component-count heuristic -> mixture fit (or Ward linkage)
-> hard labels -> cluster assembly -> oversized-cluster split rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bgm import ClusteringError, MixtureState, assign_labels, fit_bgm
from .model import Detection, SampleSet
from .ward import fit_agglomerative

__all__ = [
    "ClusterConfig",
    "InstanceCluster",
    "ClusteringError",
    "MixtureState",
    "assign_labels",
    "fit_bgm",
    "fit_agglomerative",
    "estimate_component_count",
    "default_split_threshold",
    "box_features",
    "build_instance_clusters",
    "labels_from_clusters",
    "split_oversized",
    "cluster_pipeline",
]

_MAX_SPLIT_DEPTH = 3  # recursion cap for the oversized-cluster split rule


@dataclass(frozen=True)
class ClusterConfig:
    algorithm: str = "bgm"                 # "bgm" or "agg"
    max_iters: int = 500
    split_threshold: Optional[int] = None  # None -> default_split_threshold(N)
    seed: int = 0
    n_init: int = 3

    def __post_init__(self):
        if self.algorithm not in ("bgm", "agg"):
            raise ValueError(f"algorithm must be 'bgm' or 'agg', got {self.algorithm!r}")
        if self.split_threshold is not None and self.split_threshold < 1:
            raise ValueError(f"split_threshold must be >= 1, got {self.split_threshold}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {self.n_init}")


@dataclass(frozen=True)
class InstanceCluster:
    """Detections judged to belong to one physical instance."""

    cluster_id: int
    members: Tuple[Detection, ...]
    indices: Tuple[int, ...]  # each member's position in the sample set
    height: int
    width: int
    split_refused: bool = False  # oversized but would not break apart

    def __post_init__(self):
        if not self.members:
            raise ValueError("cluster must have at least one member")
        if len(self.indices) != len(self.members):
            raise ValueError("one index required per member")

    def __len__(self) -> int:
        return len(self.members)


def estimate_component_count(n_detections: int, n_repetitions: int) -> int:
    """Detections divided by repetitions, rounded half-up, at least 1."""
    if n_repetitions < 1:
        raise ValueError(f"n_repetitions must be >= 1, got {n_repetitions}")
    if n_detections == 0:
        raise ClusteringError("nothing to cluster: 0 detections")
    return max(1, (2 * n_detections + n_repetitions) // (2 * n_repetitions))


def default_split_threshold(n_repetitions: int) -> int:
    """1.5 x the repetition count, rounded half-up.

    One instance yields about one detection per repetition, so a cluster
    this much larger than the repetition count holds more than one.
    """
    if n_repetitions < 1:
        raise ValueError(f"n_repetitions must be >= 1, got {n_repetitions}")
    return (3 * n_repetitions + 1) // 2


def box_features(s: SampleSet) -> np.ndarray:
    """(n, 4) matrix of (x1, y1, x2, y2) rows in detection order."""
    if not s.detections:
        raise ClusteringError("nothing to cluster: 0 detections")
    return np.array([d.bbox.as_tuple() for d in s.detections], dtype=np.float64)


def build_instance_clusters(s: SampleSet, labels: Sequence[int]) -> List[InstanceCluster]:
    """Group detections by label into clusters ordered by ascending label.

    Members inside a cluster are sorted by (repetition, position in the
    sample set); cluster ids are renumbered densely.
    """
    labels = np.asarray(labels)
    if labels.shape != (len(s.detections),):
        raise ValueError(
            f"labels shape {labels.shape} does not match {len(s.detections)} detections"
        )
    clusters = []
    for new_id, label in enumerate(np.unique(labels)):
        order = sorted(
            np.flatnonzero(labels == label).tolist(),
            key=lambda i: (s.detections[i].repetition, i),
        )
        clusters.append(
            InstanceCluster(
                cluster_id=new_id,
                members=tuple(s.detections[i] for i in order),
                indices=tuple(order),
                height=s.height,
                width=s.width,
            )
        )
    return clusters


def labels_from_clusters(
    s: SampleSet, clusters: Sequence[InstanceCluster]
) -> np.ndarray:
    """Invert a clustering back to one cluster id per detection."""
    labels = np.full(len(s.detections), -1, dtype=np.int64)
    for c in clusters:
        labels[list(c.indices)] = c.cluster_id
    missing = np.flatnonzero(labels < 0)
    if missing.size:
        raise ValueError(f"detection {missing[0]} is in no cluster")
    return labels


def _split_once(
    cluster: InstanceCluster, n_repetitions: int, threshold: int, cfg: ClusterConfig, depth: int
) -> List[InstanceCluster]:
    if len(cluster) <= threshold:
        return [cluster]
    if depth >= _MAX_SPLIT_DEPTH:
        return [replace(cluster, split_refused=True)]
    points = np.array([d.bbox.as_tuple() for d in cluster.members], dtype=np.float64)
    k_max = max(2, estimate_component_count(len(cluster), n_repetitions))
    state = fit_bgm(points, k_max, cfg)
    labels = assign_labels(state)
    if np.unique(labels).size < 2:
        return [replace(cluster, split_refused=True)]
    parts = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        part = replace(
            cluster,
            members=tuple(cluster.members[i] for i in idx),
            indices=tuple(cluster.indices[i] for i in idx),
        )
        parts.extend(_split_once(part, n_repetitions, threshold, cfg, depth + 1))
    return parts


def split_oversized(
    clusters: Sequence[InstanceCluster], n_repetitions: int, cfg: ClusterConfig
) -> List[InstanceCluster]:
    """Re-cluster any group larger than the split threshold.

    The threshold is ``cfg.split_threshold``, or default_split_threshold of
    the repetition count when that is None. Oversized clusters are refit
    with the mixture on their own box features (upper limit from the count
    heuristic, at least 2), recursively. A cluster that refuses to break
    apart is kept whole and flagged.
    """
    threshold = cfg.split_threshold or default_split_threshold(n_repetitions)
    out: List[InstanceCluster] = []
    for cluster in clusters:
        out.extend(_split_once(cluster, n_repetitions, threshold, cfg, depth=0))
    return [replace(c, cluster_id=i) for i, c in enumerate(out)]


def cluster_pipeline(s: SampleSet, cfg: ClusterConfig = ClusterConfig()) -> List[InstanceCluster]:
    """Full clustering of one image's sampled detections.

    For the mixture the component upper limit gets headroom over the count
    heuristic (max(2*h, h+2)) and unused components are pruned by the
    stick-breaking prior; the agglomerative comparator uses the heuristic
    count directly.
    """
    points = box_features(s)
    heuristic = estimate_component_count(len(s.detections), s.n_repetitions)
    if cfg.algorithm == "bgm":
        k_max = max(2 * heuristic, heuristic + 2)
        state = fit_bgm(points, k_max, cfg)
        labels = assign_labels(state)
    else:
        labels = fit_agglomerative(points, min(heuristic, len(s.detections)))
    clusters = build_instance_clusters(s, labels)
    return split_oversized(clusters, s.n_repetitions, cfg)
