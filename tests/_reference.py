"""Reference implementations of the mask layer, kept as the tests' oracles.

Each is the straightforward form that the array code in dropuq.model and
dropuq.report replaced: a validator over a tuple of Python ints, mask
statistics counted over every pixel of the image, one boundary sweep per
mask pair, the foreground bounds of one mask at a time, the IoU of one pair
of boxes in Python floats, and a density curve built from one (grid, sample)
matrix. The array code must give the same results bit for bit. A sample set's
run column is read here one row at a time, as RleMask objects (``masks_of``).
"""

from __future__ import annotations

import math

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


def mask_rows(s):
    """Each row's mask runs as an int64 array, or None for a row without a mask."""
    offsets = s.mask_offsets.tolist()
    return [s.mask_runs[a:b] if b > a else None for a, b in zip(offsets, offsets[1:])]


def masks_of(s):
    """Each row's mask as an RleMask, or None for a row without a mask."""
    return [None if r is None else RleMask(s.height, s.width, r) for r in mask_rows(s)]


def run_column(masks):
    """(runs, offsets): the run column of one row per RleMask."""
    runs = [np.zeros(0, np.int64)] + [m.runs for m in masks]
    return np.concatenate(runs), np.cumsum([0] + [m.runs.size for m in masks])


def reference_foreground_intervals(mask):
    """Half-open [start, end) flat-pixel bounds of one mask's foreground runs."""
    bounds = np.cumsum(np.asarray(mask.runs.tolist(), dtype=np.int64))
    return bounds[:-1:2], bounds[1::2]


def reference_mask_iou(a, b):
    """Pairwise IoU by a sweep over the run bounds of both masks."""
    if a.height != b.height or a.width != b.width:
        raise ValueError(
            f"mask dims differ: {a.height}x{a.width} vs {b.height}x{b.width}"
        )
    starts_a, ends_a = reference_foreground_intervals(a)
    starts_b, ends_b = reference_foreground_intervals(b)
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
    masks = [m for m in masks_of(c.members) if m is not None]
    h, w = c.members.height, c.members.width
    n = len(masks)
    if n == 0:
        zeros = np.broadcast_to(0.0, (h, w))
        return MaskStats(zeros, zeros, RleMask(h, w, (h * w,)), True, 0, mask_threshold)
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
    return MaskStats(mean, std, consensus, consensus.is_empty, n, mask_threshold)


def reference_iou_to_mean(c, s, m):
    """IoU samples with one reference_mask_iou call per mask-carrying member."""
    mean = s.mean_box.as_tuple()
    box_samples = tuple(reference_box_iou(box, mean) for box in c.members.boxes.tolist())
    if m.zero_mask:
        return box_samples, ()
    masks = [mask for mask in masks_of(c.members) if mask is not None]
    mask_samples = tuple(reference_mask_iou(mask, m.consensus_mask) for mask in masks)
    return box_samples, mask_samples


def reference_kde_density(samples, grid, bandwidth):
    """The Gaussian kernel density at every grid point from one (grid, sample)
    matrix of standardised distances."""
    x = np.asarray(samples, dtype=np.float64)
    z = (grid[:, None] - x[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (x.size * bandwidth * math.sqrt(2.0 * math.pi))
