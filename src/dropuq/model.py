"""Core domain types for MC-Dropout detection samples, plus box/mask geometry.

All types are immutable after construction and safe to share across threads.
Every operation in this module is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BBox",
    "RleMask",
    "ScoreVector",
    "RowError",
    "SampleSet",
    "box_iou",
    "box_ious",
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


class RowError(ValueError):
    """An invalid row of a columnar set; ``row`` is its 0-based index."""

    def __init__(self, row: int, message: str, noun: str = "row"):
        super().__init__(f"{noun} {row}: {message}")
        self.row = row
        self.message = message


def _float_rows(rows) -> np.ndarray:
    """A float64 copy of ``rows``; an integer beyond the double range is a
    RowError naming its row."""
    try:
        return np.array(rows, dtype=np.float64)
    except OverflowError:
        for i, row in enumerate(rows):
            try:
                np.array(row, dtype=np.float64)
            except OverflowError as exc:
                raise RowError(i, str(exc), "detection") from None
        raise


@dataclass(frozen=True, eq=False)
class SampleSet:
    """All detections for one image across every MC-Dropout repetition, as columns.

    Row i is one detection: ``boxes[i]`` (x1, y1, x2, y2), ``scores[i]`` (K+1
    class probabilities, background first), ``repetition[i]`` and ``masks[i]``
    (an RleMask or None). ``boxes``, ``scores`` and ``repetition`` are read-only
    (n, 4) float64, (n, K+1) float64 and (n,) int64 copies, so K is known even
    when n = 0; ``masks`` is a length-n tuple.

    Every row is checked here, and a bad one raises RowError naming it: the
    repetition lies in [0, n_repetitions); the box is finite, has positive
    area, and keeps positive area when clamped into [0, width] x [0, height],
    which is what is stored; the scores lie in [0, 1] and sum to 1 within
    1e-6; a mask has the image's dims. Rows are then sorted stably by
    repetition.
    """

    image_id: str
    height: int
    width: int
    n_repetitions: int
    boxes: np.ndarray
    scores: np.ndarray
    repetition: np.ndarray
    masks: Tuple[Optional[RleMask], ...]

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError("image dims must be positive")
        masks = tuple(self.masks)
        n = len(masks)
        boxes = _float_rows(self.boxes)
        scores = _float_rows(self.scores)
        try:
            repetition = np.array(self.repetition, dtype=np.int64)
        except OverflowError:  # beyond 64 bits: compared exactly below, then reported
            repetition = np.array([int(r) for r in self.repetition], dtype=object)
        if boxes.shape != (n, 4) or scores.ndim != 2 or len(scores) != n or repetition.shape != (n,):
            raise ValueError(
                f"need (n, 4) boxes, (n, K+1) scores, n repetitions and n masks; got shapes "
                f"{boxes.shape}, {scores.shape}, {repetition.shape} and {n} masks"
            )
        if scores.shape[1] < 2:  # every row is short, so the first one is
            message = "score vector needs background plus >=1 class"
            raise RowError(0, message, "detection") if n else ValueError(message)
        # Indices are int64: a repetition count beyond that range admits no more.
        bound = min(self.n_repetitions, _INT64_MAX + 1)
        dims = (self.width, self.height) * 2
        # min(max(v, 0), limit), keeping v where it equals a bound as Python's min/max do
        clamped = np.where(boxes < 0.0, 0.0, boxes)
        clamped = np.where(clamped > np.array(dims, dtype=np.float64), dims, clamped)
        total = np.zeros(n)  # summed left to right, as sum() adds a tuple
        for column in scores.T:
            total += column
        image = (self.height, self.width)
        rules = [  # (row passes, its message), in the order a file's line is checked
            (((repetition >= 0) & (repetition < bound)).astype(bool),
             lambda i: f"repetition {repetition[i]} out of range [0, {bound})"),
            (np.isfinite(boxes).all(axis=1),
             lambda i: f"box coordinates must be finite, got {tuple(boxes[i].tolist())}"),
            (_positive_area(boxes), lambda i: _area_message(boxes[i].tolist())),
            (_positive_area(clamped), lambda i: _area_message(  # a limit prints as given
                min(max(v, 0.0), lim) for v, lim in zip(boxes[i].tolist(), dims))),
            (((scores >= 0.0) & (scores <= 1.0)).all(axis=1),
             lambda i: f"scores must lie in [0, 1], got {tuple(scores[i].tolist())}"),
            (np.abs(total - 1.0) <= 1e-6,
             lambda i: f"scores must sum to 1 within 1e-6, got {float(total[i])}"),
            (np.array([m is None or (m.height, m.width) == image for m in masks], dtype=bool),
             lambda i: f"mask dims {masks[i].height}x{masks[i].width} differ from "
                       f"image dims {self.height}x{self.width}"),
        ]
        ok = np.logical_and.reduce([passed for passed, _ in rules])
        if not ok.all():
            i = int(np.argmin(ok))
            message = next(describe(i) for passed, describe in rules if not passed[i])
            raise RowError(i, message, "detection")
        # After the rows: with n_repetitions < 1 every row is out of range,
        # and a row names its line in a file.
        if self.n_repetitions < 1:
            raise ValueError("n_repetitions must be positive")
        order = np.argsort(repetition, kind="stable")
        columns = {"boxes": clamped, "scores": scores, "repetition": repetition.astype(np.int64)}
        for name, column in columns.items():
            column = column[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "masks", tuple(masks[i] for i in order.tolist()))

    def __len__(self) -> int:
        return len(self.masks)

    def present_masks(self) -> List[RleMask]:
        """The masks of the rows that carry one, in row order."""
        return [m for m in self.masks if m is not None]

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        fields = ("image_id", "height", "width", "n_repetitions", "masks")
        columns = ("boxes", "scores", "repetition")
        return all(getattr(self, f) == getattr(other, f) for f in fields) and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in columns
        )

    def take(self, idx) -> "SampleSet":
        """The rows at the integer positions ``idx``, as a SampleSet (whose
        rows are sorted stably by repetition, as every SampleSet's are)."""
        idx = np.asarray(idx, dtype=np.int64)
        masks = tuple(self.masks[i] for i in idx.tolist())
        return replace(self, boxes=self.boxes[idx], scores=self.scores[idx],
                       repetition=self.repetition[idx], masks=masks)


def _positive_area(boxes: np.ndarray) -> np.ndarray:
    return (boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])


def _area_message(values) -> str:
    return f"box must have strictly positive area, got {tuple(values)}"


def box_iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    return float(box_ious(np.array([a.as_tuple()]), b)[0])


def box_ious(boxes: np.ndarray, ref: BBox) -> np.ndarray:
    """IoU of each (x1, y1, x2, y2) row of ``boxes`` against ``ref``; 0.0 where
    they are disjoint or only touch."""
    x1, y1, x2, y2 = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T
    ix = np.minimum(x2, ref.x2) - np.maximum(x1, ref.x1)
    iy = np.minimum(y2, ref.y2) - np.maximum(y1, ref.y1)
    inter = ix * iy
    union = (x2 - x1) * (y2 - y1) + ref.area - inter
    return np.divide(inter, union, out=np.zeros(len(x1)), where=(ix > 0.0) & (iy > 0.0))


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
    starts, ends, offsets = _foreground_runs(masks)
    # A zero-length run at pixel 0 comes first, so every x >= 0 has a run
    # starting at or before it, even when ref is empty.
    ref_starts, ref_ends = (np.concatenate(([0], b)) for b in ref.foreground_intervals())
    ref_lengths = ref_ends - ref_starts
    ref_before = np.cumsum(ref_lengths) - ref_lengths  # ref pixels before each run

    def covered(x: np.ndarray) -> np.ndarray:
        k = np.searchsorted(ref_starts, x, side="right") - 1  # last run starting <= x
        return ref_before[k] + np.minimum(x - ref_starts[k], ref_lengths[k])

    def per_mask(values: np.ndarray) -> np.ndarray:
        total = np.concatenate(([0], np.cumsum(values)))
        return total[offsets[1:]] - total[offsets[:-1]]

    inter = per_mask(covered(ends) - covered(starts))
    union = per_mask(ends - starts) + ref.foreground_count - inter
    return np.divide(inter, union, out=np.zeros(len(masks)), where=union > 0)


def _foreground_runs(masks: Sequence[RleMask]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The foreground runs of one or more masks, concatenated: half-open
    [start, end) flat-pixel bounds, and the offset of each mask's first run
    (then the run count)."""
    intervals = [a.foreground_intervals() for a in masks]
    starts = np.concatenate([st for st, _ in intervals])
    ends = np.concatenate([en for _, en in intervals])
    offsets = np.cumsum([0] + [st.size for st, _ in intervals])
    return starts, ends, offsets


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
