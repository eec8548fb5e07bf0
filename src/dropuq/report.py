"""Per-cluster uncertainty statistics: boxes, class scores, masks, IoU KDEs.

Each statistic takes a cluster's members, the SampleSet of its detections.
They are treated as the complete MC sample, so every spread figure is a
population (not sample) standard deviation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .ingest import json_document
from .model import SampleSet, _foreground_bounds, box_ious, mask_ious, rle_encode

__all__ = [
    "BoxStats",
    "ClassStats",
    "MaskStats",
    "KdeCurve",
    "ClusterReport",
    "DegenerateSamples",
    "box_stats",
    "class_stats",
    "mask_stats",
    "iou_to_mean",
    "kde",
    "build_report",
    "report_to_json",
    "write_pgm",
]


_KDE_GRID_SIZE = 256  # points on which a density curve is evaluated
_KDE_BLOCK_VALUES = 1 << 16  # (grid point, sample) pairs evaluated at once: memory O(n)


class DegenerateSamples(ValueError):
    """Fewer than two samples, or zero variance: no density to estimate."""


@dataclass(frozen=True)
class BoxStats:
    mean_box: Tuple[float, float, float, float]  # (x1, y1, x2, y2)
    edge_std: Tuple[float, float, float, float]  # std of x1, y1, x2, y2
    centers: Tuple[Tuple[float, float], ...]     # per-member box centers


@dataclass(frozen=True)
class ClassStats:
    mean_scores: Tuple[float, ...]
    std_scores: Tuple[float, ...]
    top_classes: Tuple[int, ...]  # class indices sorted by mean, descending


@dataclass(frozen=True)
class MaskStats:
    mean_mask: np.ndarray        # (H, W) in [0, 1]
    std_mask: np.ndarray         # (H, W) non-negative
    consensus_runs: np.ndarray   # runs of the mask mean >= threshold
    zero_mask: bool              # consensus has no foreground (or no masks at all)
    coverage_count: int          # members that carry a mask
    mask_threshold: float


@dataclass(frozen=True)
class KdeCurve:
    grid: Tuple[float, ...]
    density: Tuple[float, ...]
    bandwidth: float
    sample_mean: float
    sample_std: float


@dataclass(frozen=True)
class ClusterReport:
    box_stats: BoxStats
    class_stats: ClassStats
    mask_stats: MaskStats
    box_iou_samples: Tuple[float, ...]
    mask_iou_samples: Tuple[float, ...]
    box_kde: Optional[KdeCurve]   # None when samples are degenerate
    mask_kde: Optional[KdeCurve]


def _check_members(members: SampleSet) -> None:
    if len(members) == 0:
        raise ValueError("a cluster needs at least one member")


def box_stats(members: SampleSet) -> BoxStats:
    """Coordinate-wise mean box, per-edge std, and member centers."""
    _check_members(members)
    coords = members.boxes
    centers = (coords[:, :2] + coords[:, 2:]) / 2.0
    return BoxStats(
        mean_box=tuple(coords.mean(axis=0).tolist()),
        edge_std=tuple(coords.std(axis=0).tolist()),
        centers=tuple(map(tuple, centers.tolist())),
    )


def class_stats(members: SampleSet) -> ClassStats:
    """Per-class score mean and std across members, background included."""
    _check_members(members)
    scores = members.scores
    mean = scores.mean(axis=0)
    std = scores.std(axis=0)
    # Stable order: ties broken toward the lower class index.
    top = np.argsort(-mean, kind="stable")
    return ClassStats(
        mean_scores=tuple(float(v) for v in mean),
        std_scores=tuple(float(v) for v in std),
        top_classes=tuple(int(i) for i in top),
    )


def _check_mask_threshold(mask_threshold: float) -> None:
    if not 0.0 <= mask_threshold <= 1.0:
        raise ValueError(f"mask threshold must be in [0, 1], got {mask_threshold}")


def mask_stats(members: SampleSet, mask_threshold: float = 0.5) -> MaskStats:
    """Pixelwise mean/std over mask-carrying members plus the consensus mask.

    The mean at a pixel is the fraction of mask-carrying members with
    foreground there; the consensus binarizes the mean at the threshold.
    zero_mask flags a cluster whose consensus has no foreground at all.

    Members are never decoded: each one adds +1/-1 at its foreground run
    bounds to one difference array, whose cumulative sum is the per-pixel
    count c of members covering the pixel. Then mean = c / n and the
    population std of n Bernoulli values is sqrt(c (n - c)) / n, so memory
    is O(H*W) whatever the member count. Counts are summed only over the
    flat window [smallest start, largest end) of the members' foreground
    runs; outside it c = 0, so mean and std are 0 and the consensus is
    foreground only at threshold 0. The threshold must lie in [0, 1].
    """
    _check_mask_threshold(mask_threshold)
    h, w = members.height, members.width
    n = int(np.count_nonzero(np.diff(members.mask_offsets)))  # a mask has at least one run
    if n == 0:
        zeros = np.broadcast_to(0.0, (h, w))  # read-only: nothing reads these heatmaps
        return MaskStats(
            mean_mask=zeros,
            std_mask=zeros,
            consensus_runs=np.array([h * w]),
            zero_mask=True,
            coverage_count=0,
            mask_threshold=mask_threshold,
        )
    starts, ends, _ = _foreground_bounds(members.mask_runs, members.mask_offsets, h * w)
    lo = int(starts.min()) if starts.size else 0
    hi = int(ends.max()) if ends.size else 0
    diff = np.bincount(starts - lo, minlength=hi - lo + 1)
    diff -= np.bincount(ends - lo, minlength=hi - lo + 1)
    counts = np.cumsum(diff[: hi - lo], out=diff[: hi - lo])
    mean = np.zeros(h * w)
    np.divide(counts, n, out=mean[lo:hi])
    counts *= n - counts  # in place: n^2 times the variance, c (n - c)
    std = np.zeros(h * w)
    np.sqrt(counts, out=std[lo:hi])
    std[lo:hi] /= n
    consensus = np.full(h * w, 0.0 >= mask_threshold)
    np.greater_equal(mean[lo:hi], mask_threshold, out=consensus[lo:hi])
    consensus = rle_encode(consensus.reshape(h, w))
    return MaskStats(
        mean_mask=mean.reshape(h, w),
        std_mask=std.reshape(h, w),
        consensus_runs=consensus,
        zero_mask=consensus.size == 1,  # only an all-background grid encodes as one run
        coverage_count=n,
        mask_threshold=mask_threshold,
    )


def iou_to_mean(
    members: SampleSet, s: BoxStats, m: MaskStats
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """IoU of each member against the cluster-mean box / consensus mask.

    Box samples cover every member; mask samples cover mask-carrying members
    and are empty for a zero-mask cluster (no reference to compare against).
    The mask samples come from one mask_ious pass over all members.
    """
    box_samples = tuple(box_ious(members.boxes, s.mean_box).tolist())
    if m.zero_mask:
        return box_samples, ()
    ious = mask_ious(members.mask_runs, members.mask_offsets, m.consensus_runs)
    return box_samples, tuple(ious.tolist())


def kde(samples: Sequence[float]) -> KdeCurve:
    """Gaussian kernel density with Scott's bandwidth sigma * n^(-1/5).

    The curve is evaluated at 256 uniform points in [min - 3h, max + 3h].
    Raises DegenerateSamples for fewer than two samples or zero variance.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise DegenerateSamples(f"need >= 2 samples, got {x.size}")
    std = float(x.std())
    if std == 0.0:
        raise DegenerateSamples("samples have zero variance")
    h = std * x.size ** (-0.2)
    grid = np.linspace(x.min() - 3.0 * h, x.max() + 3.0 * h, _KDE_GRID_SIZE)
    density = np.empty(_KDE_GRID_SIZE)
    step = max(1, _KDE_BLOCK_VALUES // x.size)
    for lo in range(0, _KDE_GRID_SIZE, step):  # each row sums as in one (grid, x) matrix
        z = (grid[lo:lo + step, None] - x) / h
        density[lo:lo + step] = np.exp(-0.5 * z * z).sum(axis=1)
    density /= x.size * h * math.sqrt(2.0 * math.pi)
    return KdeCurve(
        grid=tuple(float(v) for v in grid),
        density=tuple(float(v) for v in density),
        bandwidth=h,
        sample_mean=float(x.mean()),
        sample_std=std,
    )


def build_report(members: SampleSet, mask_threshold: float = 0.5) -> ClusterReport:
    """Full uncertainty report for the members of one cluster.

    KDE curves are left out (None) when the IoU samples are degenerate,
    e.g. singleton clusters or all-identical members.
    """
    bstats = box_stats(members)
    cstats = class_stats(members)
    mstats = mask_stats(members, mask_threshold)
    box_samples, mask_samples = iou_to_mean(members, bstats, mstats)
    try:
        box_kde = kde(box_samples)
    except DegenerateSamples:
        box_kde = None
    try:
        mask_kde = kde(mask_samples)
    except DegenerateSamples:
        mask_kde = None
    return ClusterReport(
        box_stats=bstats,
        class_stats=cstats,
        mask_stats=mstats,
        box_iou_samples=box_samples,
        mask_iou_samples=mask_samples,
        box_kde=box_kde,
        mask_kde=mask_kde,
    )


def _kde_dict(curve: Optional[KdeCurve]):
    if curve is None:
        return None
    return {
        "grid": list(curve.grid),
        "density": list(curve.density),
        "bandwidth": curve.bandwidth,
        "sample_mean": curve.sample_mean,
        "sample_std": curve.sample_std,
    }


def report_to_json(r: ClusterReport, cluster_id: int, split_refused: bool) -> str:
    """Deterministic JSON rendering of the report of cluster ``cluster_id``,
    flagged with ``split_refused`` (heatmaps as RLE + PGM ref).

    Schema: cluster_id, split_refused, box{mean, edge_std, centers},
    classes{mean, std, top}, mask{consensus_runs, zero_mask, coverage_count,
    threshold}, iou{box_samples, mask_samples}, kde{box, mask}. Dense
    heatmap pixels live in the PGM exports, not in the JSON.
    """
    doc = {
        "cluster_id": cluster_id,
        "split_refused": split_refused,
        "box": {
            "mean": list(r.box_stats.mean_box),
            "edge_std": list(r.box_stats.edge_std),
            "centers": [list(c) for c in r.box_stats.centers],
        },
        "classes": {
            "mean": list(r.class_stats.mean_scores),
            "std": list(r.class_stats.std_scores),
            "top": list(r.class_stats.top_classes),
        },
        "mask": {
            "height": r.mask_stats.mean_mask.shape[0],
            "width": r.mask_stats.mean_mask.shape[1],
            "consensus_runs": r.mask_stats.consensus_runs.tolist(),
            "zero_mask": r.mask_stats.zero_mask,
            "coverage_count": r.mask_stats.coverage_count,
            "threshold": r.mask_stats.mask_threshold,
        },
        "iou": {
            "box_samples": list(r.box_iou_samples),
            "mask_samples": list(r.mask_iou_samples),
        },
        "kde": {"box": _kde_dict(r.box_kde), "mask": _kde_dict(r.mask_kde)},
    }
    return json_document(doc)


def write_pgm(values: np.ndarray, path) -> None:
    """Write an (H, W) array of [0, 1] values as a binary 8-bit PGM.

    The file is written under a temporary name and renamed into place, so
    a failed write leaves nothing under ``path``.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
        raise ValueError("values must lie in [0, 1]")
    scaled = arr * 255.0
    # Rounded in place: each full-size float temporary is fresh memory to fault in.
    pixels = np.rint(scaled, out=scaled).astype(np.uint8)
    h, w = pixels.shape
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    os.replace(tmp, path)
