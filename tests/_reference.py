"""Reference implementations of the mask layer, kept as the tests' oracles.

Each is the straightforward form that the array code in dropuq.model and
dropuq.report replaced: a validator over a tuple of Python ints, mask
statistics counted over every pixel of the image, one boundary sweep per
mask pair, and the IoU of one pair of boxes in Python floats. The array code
must give the same results bit for bit.
"""

from __future__ import annotations

import numpy as np

from dropuq.model import RleMask, rle_encode
from dropuq.report import MaskStats


def reference_runs(height, width, runs):
    """The runs a valid mask holds, as a tuple; raises ValueError as RleMask does."""
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


def _intervals(mask):
    bounds = np.cumsum(np.asarray(mask.runs.tolist(), dtype=np.int64))
    return bounds[:-1:2], bounds[1::2]


def reference_mask_iou(a, b):
    """Pairwise IoU by a sweep over the run bounds of both masks."""
    if a.height != b.height or a.width != b.width:
        raise ValueError(
            f"mask dims differ: {a.height}x{a.width} vs {b.height}x{b.width}"
        )
    starts_a, ends_a = _intervals(a)
    starts_b, ends_b = _intervals(b)
    pos = np.concatenate((starts_a, starts_b, ends_a, ends_b))
    step = np.repeat([1, -1], len(starts_a) + len(starts_b))
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    coverage = np.cumsum(step[order])
    inter = int(np.diff(pos)[coverage[:-1] == 2].sum())
    count_a = sum(a.runs.tolist()[1::2])
    count_b = sum(b.runs.tolist()[1::2])
    union = count_a + count_b - inter
    if union == 0:
        return 0.0
    return inter / union


def reference_mask_stats(c, mask_threshold=0.5):
    """Mask statistics with the counts summed over every pixel of the image."""
    if not 0.0 <= mask_threshold <= 1.0:
        raise ValueError(f"mask threshold must be in [0, 1], got {mask_threshold}")
    masks = [m for m in c.members.masks if m is not None]
    h, w = c.members.height, c.members.width
    n = len(masks)
    if n == 0:
        zeros = np.broadcast_to(0.0, (h, w))
        return MaskStats(zeros, zeros, RleMask(h, w, (h * w,)), True, 0, mask_threshold)
    intervals = [_intervals(m) for m in masks]
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
    return MaskStats(mean, std, consensus, consensus.is_empty, n, mask_threshold)


def reference_iou_to_mean(c, s, m):
    """IoU samples with one reference_mask_iou call per mask-carrying member."""
    mean = s.mean_box.as_tuple()
    box_samples = tuple(reference_box_iou(box, mean) for box in c.members.boxes.tolist())
    if m.zero_mask:
        return box_samples, ()
    mask_samples = tuple(
        reference_mask_iou(mask, m.consensus_mask) for mask in c.members.masks if mask is not None
    )
    return box_samples, mask_samples
