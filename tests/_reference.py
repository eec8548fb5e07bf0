"""Reference implementations of the mask layer, kept as the tests' oracles.

Each is the straightforward form that the array code in dropuq.model,
dropuq.report and dropuq.evaluation replaced: a validator over a tuple of
Python ints, mask statistics counted over every pixel of the image, one
boundary sweep per mask pair, the foreground bounds of one mask at a time,
the IoU of one pair of boxes in Python floats, a density curve built from
one (grid, sample) matrix, and a matcher that takes one IoU per pair. The
array code must give the same results bit for bit. A mask is its runs, and
a sample set's run column is read here one row at a time (``mask_rows``).
"""

from __future__ import annotations

import math

import numpy as np

from dropuq.evaluation import EvalResult, MatchRecord
from dropuq.model import rle_encode
from dropuq.report import MaskStats


def reference_runs(height, width, runs):
    """The runs a valid mask holds, as a tuple; raises ValueError with the
    run rules' messages."""
    if height < 1 or width < 1:
        raise ValueError(f"mask dims must be positive, got {height}x{width}")
    runs = tuple(int(r) for r in runs)
    if any(r < 0 for r in runs):
        raise ValueError("run lengths must be non-negative")
    if any(r == 0 for r in runs[1:]):
        raise ValueError("zero-length run allowed only as the leading run")
    total = sum(runs)
    if total != height * width:
        raise ValueError(f"runs sum to {total}, expected {height * width}")
    return runs


def reference_box_iou(a, b):
    """IoU of two (x1, y1, x2, y2) boxes in Python floats; 0.0 when disjoint."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def mask_rows(s):
    """Each row's mask runs as an int64 array, or None for a row without a mask."""
    offsets = s.mask_offsets.tolist()
    return [s.mask_runs[a:b] if b > a else None for a, b in zip(offsets, offsets[1:])]


def run_column(masks):
    """(runs, offsets): the run column of one row per mask."""
    runs = [np.zeros(0, np.int64)] + [np.asarray(m, dtype=np.int64) for m in masks]
    return np.concatenate(runs), np.cumsum([0] + [len(m) for m in masks])


def reference_foreground_intervals(runs):
    """Half-open [start, end) flat-pixel bounds of one mask's foreground runs."""
    bounds = np.cumsum(np.asarray(runs, dtype=np.int64))
    return bounds[:-1:2], bounds[1::2]


def reference_mask_iou(a, b):
    """Pairwise IoU of two masks' runs by a sweep over both masks' run bounds."""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()  # Python ints
    if sum(a) != sum(b):
        raise ValueError(f"masks of {sum(a)} and {sum(b)} pixels")
    starts_a, ends_a = reference_foreground_intervals(a)
    starts_b, ends_b = reference_foreground_intervals(b)
    pos = np.concatenate((starts_a, starts_b, ends_a, ends_b))
    step = np.repeat([1, -1], len(starts_a) + len(starts_b))
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    coverage = np.cumsum(step[order])
    inter = int(np.diff(pos)[coverage[:-1] == 2].sum())
    count_a = sum(a[1::2])
    count_b = sum(b[1::2])
    union = count_a + count_b - inter
    if union == 0:
        return 0.0
    return inter / union


def reference_mask_stats(members, mask_threshold=0.5):
    """Mask statistics with the counts summed over every pixel of the image."""
    if not 0.0 <= mask_threshold <= 1.0:
        raise ValueError(f"mask threshold must be in [0, 1], got {mask_threshold}")
    masks = [m for m in mask_rows(members) if m is not None]
    h, w = members.height, members.width
    n = len(masks)
    if n == 0:
        zeros = np.broadcast_to(0.0, (h, w))
        return MaskStats(zeros, zeros, np.array([h * w]), True, 0, mask_threshold)
    intervals = [reference_foreground_intervals(m) for m in masks]
    starts = np.concatenate([s for s, _ in intervals])
    ends = np.concatenate([e for _, e in intervals])
    diff = np.bincount(starts, minlength=h * w + 1)
    diff -= np.bincount(ends, minlength=h * w + 1)
    counts = np.cumsum(diff[: h * w], out=diff[: h * w]).reshape(h, w)
    mean = counts / n
    counts *= n - counts
    std = np.sqrt(counts)
    std /= n
    consensus = rle_encode(mean >= mask_threshold)
    return MaskStats(mean, std, consensus, not (mean >= mask_threshold).any(), n, mask_threshold)


def reference_iou_to_mean(members, s, m):
    """IoU samples with one reference_mask_iou call per mask-carrying member."""
    mean = s.mean_box
    box_samples = tuple(reference_box_iou(box, mean) for box in members.boxes.tolist())
    if m.zero_mask:
        return box_samples, ()
    masks = [mask for mask in mask_rows(members) if mask is not None]
    mask_samples = tuple(reference_mask_iou(mask, m.consensus_runs) for mask in masks)
    return box_samples, mask_samples


def reference_kde_density(samples, grid, bandwidth):
    """The Gaussian kernel density at every grid point from one (grid, sample)
    matrix of standardised distances."""
    x = np.asarray(samples, dtype=np.float64)
    z = (grid[:, None] - x[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (x.size * bandwidth * math.sqrt(2.0 * math.pi))


def reference_match_and_score(preds, gts, mode="box"):
    """Greedy matching with one reference IoU per (prediction, ground truth)
    pair, a ground truth taking over only at a strictly higher IoU >= 0.5."""
    from dropuq.evaluation import _interpolated_ap

    def pair_iou(p, g):
        if mode == "box":
            return reference_box_iou(p.bbox, g.bbox)
        if p.mask is None or g.mask is None:
            return 0.0
        return reference_mask_iou(p.mask, g.mask)

    per_class_ap, matches, matched = {}, [], [False] * len(gts)
    for cls in sorted({g.class_id for g in gts}):
        gt_idx = [i for i, g in enumerate(gts) if g.class_id == cls]
        pred_idx = sorted((i for i, p in enumerate(preds) if p.class_id == cls),
                          key=lambda i: -preds[i].confidence)
        tp = []
        for pi in pred_idx:
            best_iou, best_gt = 0.0, None
            for gi in gt_idx:
                if matched[gi] or gts[gi].image_id != preds[pi].image_id:
                    continue
                iou = pair_iou(preds[pi], gts[gi])
                if iou >= 0.5 and iou > best_iou:
                    best_iou, best_gt = iou, gi
            if best_gt is not None:
                matched[best_gt] = True
            tp.append(float(best_gt is not None))
            matches.append(MatchRecord(preds[pi].image_id, pi, cls, preds[pi].confidence,
                                       best_gt, best_iou))
        if not pred_idx:
            per_class_ap[cls] = 0.0
            continue
        cum_tp = np.cumsum(tp)
        cum_fp = np.cumsum([1.0 - v for v in tp])
        per_class_ap[cls] = _interpolated_ap(cum_tp / len(gt_idx), cum_tp / (cum_tp + cum_fp))
    map50 = sum(per_class_ap.values()) / len(per_class_ap) if per_class_ap else None
    return EvalResult(mode, per_class_ap, map50, tuple(matches))
