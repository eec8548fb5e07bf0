"""Core domain types for MC-Dropout detection samples, plus box/mask geometry.

All types are immutable after construction and safe to share across threads.
Every operation in this module is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "BBox",
    "RleMask",
    "ScoreVector",
    "Detection",
    "SampleSet",
    "box_iou",
    "mask_iou",
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


@dataclass(frozen=True)
class RleMask:
    """Run-length encoded binary mask, row-major.

    Runs alternate background/foreground and start with a background run,
    which may have length zero. Zero-length runs are not allowed anywhere
    else, and the runs must sum to height*width.
    """

    height: int
    width: int
    runs: Tuple[int, ...]

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(
                f"mask dims must be positive, got {self.height}x{self.width}"
            )
        runs = tuple(int(r) for r in self.runs)
        object.__setattr__(self, "runs", runs)
        if any(r < 0 for r in runs):
            raise ValueError("run lengths must be non-negative")
        if any(r == 0 for r in runs[1:]):
            raise ValueError("zero-length run allowed only as the leading run")
        total = sum(runs)
        if total != self.height * self.width:
            raise ValueError(
                f"runs sum to {total}, expected {self.height * self.width}"
            )

    @property
    def foreground_count(self) -> int:
        return sum(self.runs[1::2])

    @property
    def is_empty(self) -> bool:
        return self.foreground_count == 0

    def foreground_intervals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Half-open [start, end) flat-pixel bounds of the foreground runs."""
        bounds = np.cumsum(np.asarray(self.runs, dtype=np.int64))
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
    if a.height != b.height or a.width != b.width:
        raise ValueError(
            f"mask dims differ: {a.height}x{a.width} vs {b.height}x{b.width}"
        )
    # Sweep the run boundaries of both masks: +1 at each foreground start,
    # -1 at each end. Pixels covered twice are the intersection.
    starts_a, ends_a = a.foreground_intervals()
    starts_b, ends_b = b.foreground_intervals()
    pos = np.concatenate((starts_a, starts_b, ends_a, ends_b))
    step = np.repeat([1, -1], len(starts_a) + len(starts_b))
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    coverage = np.cumsum(step[order])
    inter = int(np.diff(pos)[coverage[:-1] == 2].sum())
    union = a.foreground_count + b.foreground_count - inter
    if union == 0:
        return 0.0
    return inter / union


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
    runs = [int(x) for x in lengths]
    if flat[0]:
        runs = [0] + runs
    return RleMask(height=h, width=w, runs=tuple(runs))


def rle_decode(mask: RleMask) -> np.ndarray:
    """Decode an RleMask into a row-major boolean grid."""
    values = np.arange(len(mask.runs)) % 2 == 1
    flat = np.repeat(values, np.asarray(mask.runs, dtype=np.int64))
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
