"""Core domain types for MC-Dropout detection samples, plus box/mask geometry.

All types are immutable after construction and safe to share across threads.
Every operation in this module is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BBox",
    "RleMask",
    "ScoreVector",
    "Detection",
    "SampleSet",
    "box_iou",
    "mask_iou",
    "mask_ious",
    "rle_encode",
    "rle_decode",
    "rasterize_box",
]


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in image coordinates, origin top-left.

    Coordinates are continuous reals; area is (x2-x1)*(y2-y1) with no
    +1 pixel convention.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        vals = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"box coordinates must be finite, got {vals}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"box must have strictly positive area, got {vals}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def clamped(self, width: float, height: float) -> "BBox":
        """Clamp the box into [0, width] x [0, height].

        Raises ValueError if the clamped box degenerates to zero area,
        i.e. the box lies entirely outside the image.
        """
        return BBox(
            min(max(self.x1, 0.0), width),
            min(max(self.y1, 0.0), height),
            min(max(self.x2, 0.0), width),
            min(max(self.y2, 0.0), height),
        )


_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class RleMask:
    """Run-length encoded binary mask, row-major.

    Runs alternate background/foreground and start with a background run,
    which may have length zero. Zero-length runs are not allowed anywhere
    else, and the runs must sum to height*width. ``runs`` is held as a
    read-only int64 array (a copy of what was passed); masks compare and
    hash by value.
    """

    height: int
    width: int
    runs: np.ndarray

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(
                f"mask dims must be positive, got {self.height}x{self.width}"
            )
        pixels = self.height * self.width
        if pixels > _INT64_MAX:
            raise ValueError(
                f"mask of {self.height} x {self.width} pixels exceeds 64-bit run bounds"
            )
        try:
            runs = np.array(self.runs, dtype=np.int64)
        except OverflowError:
            # A run beyond 64 bits: the checks below run on exact Python
            # ints only to word the error, which the sum check always raises.
            runs = np.array([int(r) for r in self.runs], dtype=object)
        if runs.ndim != 1:
            raise ValueError(f"runs must be one-dimensional, got shape {runs.shape}")
        if runs.size and runs.min() < 0:
            raise ValueError("run lengths must be non-negative")
        if not runs[1:].all():
            raise ValueError("zero-length run allowed only as the leading run")
        if runs.size and runs.max() > _INT64_MAX // runs.size:
            total = sum(runs.tolist())  # the int64 sum could wrap
        else:
            total = int(runs.sum())
        if total != pixels:
            raise ValueError(f"runs sum to {total}, expected {pixels}")
        runs.flags.writeable = False
        object.__setattr__(self, "runs", runs)

    def __eq__(self, other):
        if not isinstance(other, RleMask):
            return NotImplemented
        return (
            self.height == other.height
            and self.width == other.width
            and np.array_equal(self.runs, other.runs)
        )

    def __hash__(self):
        return hash((self.height, self.width, self.runs.tobytes()))

    @property
    def foreground_count(self) -> int:
        return int(self.runs[1::2].sum())

    @property
    def is_empty(self) -> bool:
        return self.foreground_count == 0

    def foreground_intervals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Half-open [start, end) flat-pixel bounds of the foreground runs."""
        bounds = np.cumsum(self.runs)
        return bounds[:-1:2], bounds[1::2]


@dataclass(frozen=True)
class ScoreVector:
    """Per-class probability vector; index 0 is the background class."""

    scores: Tuple[float, ...]

    def __post_init__(self):
        scores = tuple(float(s) for s in self.scores)
        object.__setattr__(self, "scores", scores)
        if len(scores) < 2:
            raise ValueError("score vector needs background plus >=1 class")
        if any(not math.isfinite(s) or s < 0.0 or s > 1.0 for s in scores):
            raise ValueError(f"scores must lie in [0, 1], got {scores}")
        total = sum(scores)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"scores must sum to 1 within 1e-6, got {total}")

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def background(self) -> float:
        return self.scores[0]

    @property
    def num_classes(self) -> int:
        """Number of foreground classes (k)."""
        return len(self.scores) - 1


@dataclass(frozen=True)
class Detection:
    """One sampled prediction: box, class scores, optional mask."""

    bbox: BBox
    scores: ScoreVector
    mask: Optional[RleMask]
    repetition: int

    def __post_init__(self):
        if self.repetition < 0:
            raise ValueError(f"repetition must be >= 0, got {self.repetition}")


@dataclass(frozen=True)
class SampleSet:
    """All detections for one image across every MC-Dropout repetition."""

    image_id: str
    height: int
    width: int
    n_repetitions: int
    detections: Tuple[Detection, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError("image dims must be positive")
        if self.n_repetitions < 1:
            raise ValueError("n_repetitions must be positive")
        object.__setattr__(self, "detections", tuple(self.detections))
        for i, det in enumerate(self.detections):
            if det.repetition >= self.n_repetitions:
                raise ValueError(
                    f"detection {i}: repetition {det.repetition} out of range "
                    f"[0, {self.n_repetitions})"
                )
            b = det.bbox
            if b.x1 < 0 or b.y1 < 0 or b.x2 > self.width or b.y2 > self.height:
                raise ValueError(
                    f"detection {i}: box {b.as_tuple()} outside "
                    f"[0,{self.width}]x[0,{self.height}]"
                )
            if det.mask is not None and (
                det.mask.height != self.height or det.mask.width != self.width
            ):
                raise ValueError(
                    f"detection {i}: mask dims {det.mask.height}x{det.mask.width} "
                    f"differ from image dims {self.height}x{self.width}"
                )

    def __len__(self) -> int:
        return len(self.detections)


def box_iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union


def mask_iou(a: RleMask, b: RleMask) -> float:
    """Foreground IoU of two masks of identical dims.

    Returns 0.0 when both masks are empty: an empty-vs-empty comparison
    carries no evidence and must not produce a fabricated perfect score.
    """
    return float(mask_ious([a], b)[0])


def mask_ious(masks: Sequence[RleMask], ref: RleMask) -> np.ndarray:
    """Foreground IoU of each mask against ``ref``, as mask_iou defines it.

    One pass over all masks in integer arithmetic: P(x), the count of
    ``ref`` pixels before flat pixel x, is read off ref's run bounds, and a
    mask's intersection with ``ref`` is the sum of P(end) - P(start) over
    its foreground runs. Each IoU is one int64 division, as exact as the
    division of Python ints for masks under 2^53 pixels.
    """
    for a in masks:
        if a.height != ref.height or a.width != ref.width:
            raise ValueError(
                f"mask dims differ: {a.height}x{a.width} vs {ref.height}x{ref.width}"
            )
    if not masks:
        return np.zeros(0)
    # A zero-length run at pixel 0 comes first, so every x >= 0 has a run
    # starting at or before it, even when ref is empty.
    ref_starts, ref_ends = (np.concatenate(([0], b)) for b in ref.foreground_intervals())
    ref_lengths = ref_ends - ref_starts
    ref_before = np.cumsum(ref_lengths) - ref_lengths  # ref pixels before each run

    def covered(x: np.ndarray) -> np.ndarray:
        k = np.searchsorted(ref_starts, x, side="right") - 1  # last run starting <= x
        return ref_before[k] + np.minimum(x - ref_starts[k], ref_lengths[k])

    intervals = [a.foreground_intervals() for a in masks]
    starts = np.concatenate([st for st, _ in intervals])
    ends = np.concatenate([en for _, en in intervals])
    offsets = np.cumsum([0] + [st.size for st, _ in intervals])

    def per_mask(values: np.ndarray) -> np.ndarray:
        total = np.concatenate(([0], np.cumsum(values)))
        return total[offsets[1:]] - total[offsets[:-1]]

    inter = per_mask(covered(ends) - covered(starts))
    union = per_mask(ends - starts) + ref.foreground_count - inter
    return np.divide(inter, union, out=np.zeros(len(masks)), where=union > 0)


def rle_encode(bitmap: np.ndarray) -> RleMask:
    """Encode a row-major boolean grid as an RleMask."""
    grid = np.asarray(bitmap, dtype=bool)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError(f"bitmap must be a non-empty 2-D grid, got shape {grid.shape}")
    h, w = grid.shape
    flat = grid.reshape(-1)
    # Boundaries between runs: positions where the value changes.
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [flat.size]))
    lengths = ends - starts
    if flat[0]:
        lengths = np.concatenate(([0], lengths))
    return RleMask(height=h, width=w, runs=lengths)


def rle_decode(mask: RleMask) -> np.ndarray:
    """Decode an RleMask into a row-major boolean grid."""
    values = np.arange(len(mask.runs)) % 2 == 1
    flat = np.repeat(values, mask.runs)
    return flat.reshape(mask.height, mask.width)


def rasterize_box(box: BBox, height: int, width: int) -> RleMask:
    """Rasterize a box on an integer pixel grid.

    A pixel is foreground iff its center lies inside the box. For boxes
    with integer coordinates this covers exactly columns [x1, x2) and
    rows [y1, y2).
    """
    cols = np.arange(width) + 0.5
    rows = np.arange(height) + 0.5
    inside = ((rows >= box.y1) & (rows < box.y2))[:, None] & (
        (cols >= box.x1) & (cols < box.x2)
    )[None, :]
    return rle_encode(inside)
