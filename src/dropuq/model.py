"""Core domain types for MC-Dropout detection samples, plus box/mask geometry.

A box is an (x1, y1, x2, y2) sequence of reals, origin top left, of area
(x2-x1)*(y2-y1). The box rules check it where it enters (SampleSet,
GroundTruthInstance, InstanceSpec), not where it is computed.

A mask is its run-length encoding: a 1-D int64 array of run lengths over
the row-major pixels, alternating background and foreground and starting
with a background run, which may have length zero. Zero-length runs are not
allowed anywhere else, and the runs sum to height*width. Masks are checked
where they enter (SampleSet, the ground-truth reader); every other mask is
``rle_encode`` of a grid.

All types are immutable after construction and safe to share across threads.
Every operation in this module is a pure function.
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass, field, fields
from typing import Callable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "RowError",
    "SampleSet",
    "box_ious",
    "label_groups",
    "mask_ious",
    "rle_encode",
    "rle_decode",
    "rasterize_box",
]


def _equal_fields(a, b) -> bool:
    """Equality of two dataclasses of one type, comparing array fields by value."""
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
    )


_INT64_MAX = np.iinfo(np.int64).max


def _run_column(rows: Sequence, pixels: int) -> Tuple[np.ndarray, np.ndarray, list]:
    """The run sequences ``rows`` (None: no mask) of masks of ``pixels`` pixels
    as one column, row i's runs being ``runs[offsets[i]:offsets[i + 1]]``, and
    the run rules as (row passes, message for row i) pairs, in checking order.
    A run beyond 64 bits makes ``runs`` exact Python ints, only to word the
    error, which the sum rule always raises."""
    has_mask = np.array([r is not None for r in rows], dtype=bool)
    try:
        parts = [np.asarray(r, dtype=np.int64) for r in rows if r is not None]
    except OverflowError:
        parts = [np.array([int(v) for v in r], dtype=object) for r in rows if r is not None]
    for part in parts:
        if part.ndim != 1:
            raise ValueError(f"runs must be one-dimensional, got shape {part.shape}")
    lengths = np.zeros(len(rows), dtype=np.int64)
    lengths[has_mask] = [part.size for part in parts]
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    runs = np.concatenate([np.zeros(0, np.int64)] + parts)
    wraps = runs.size and runs.max() > _INT64_MAX // runs.size  # a row's int64 sum could wrap
    totals = _row_sums(runs.astype(object) if wraps else runs, offsets)
    row = np.repeat(np.arange(len(rows)), lengths)  # the row of each run

    def rows_without(flagged: np.ndarray) -> np.ndarray:
        return np.bincount(row[flagged], minlength=len(rows)) == 0

    rules = [
        (rows_without(runs < 0), lambda i: "run lengths must be non-negative"),
        (rows_without((runs == 0) & (np.arange(runs.size) > offsets[row])),
         lambda i: "zero-length run allowed only as the leading run"),
        (~has_mask | (totals == pixels), lambda i: f"runs sum to {totals[i]}, expected {pixels}"),
    ]
    return runs, offsets, rules


def _row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The sum of each row's values in a column with ``offsets``."""
    running = np.concatenate(([0], np.cumsum(values)))
    return running[offsets[1:]] - running[offsets[:-1]]


def _check(rules, error: Callable[[int, str], Exception]) -> None:
    """Raise error(row, message) for the first row that fails a (row passes,
    message for row i) rule, with the message of the first rule it fails."""
    ok = np.logical_and.reduce([passed for passed, _ in rules])
    if not ok.all():
        i = int(np.argmin(ok))
        raise error(i, next(describe(i) for passed, describe in rules if not passed[i]))


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
    class probabilities, background first), ``repetition[i]`` and its mask
    runs ``mask_runs[mask_offsets[i]:mask_offsets[i + 1]]``, empty for no
    mask. All five are read-only arrays: boxes and scores (n, 4) and (n, K+1)
    float64, so K is known when n = 0, the rest int64. ``masks`` holds run
    sequences or None.

    Every row is checked here, and a bad one raises RowError naming it: the
    mask runs follow the run rules for the image's dims; the repetition
    lies in [0, n_repetitions); the box is finite, has positive area, and
    keeps positive area when clamped into [0, width] x [0, height], which is
    what is stored; the scores lie in [0, 1] and sum to 1 within 1e-6. Rows
    are then sorted stably by repetition.
    """

    image_id: str
    height: int
    width: int
    n_repetitions: int
    boxes: np.ndarray
    scores: np.ndarray
    repetition: np.ndarray
    masks: InitVar[Sequence]
    mask_runs: np.ndarray = field(init=False)
    mask_offsets: np.ndarray = field(init=False)

    def __post_init__(self, masks):
        if self.height < 1 or self.width < 1:
            raise ValueError("image dims must be positive")
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
        runs, offsets, run_rules = _run_column(masks, self.height * self.width)
        # Indices are int64: a repetition count beyond that range admits no more.
        bound = min(self.n_repetitions, _INT64_MAX + 1)
        dims = (self.width, self.height) * 2
        # min(max(v, 0), limit), keeping v where it equals a bound as Python's min/max do
        clamped = np.where(boxes < 0.0, 0.0, boxes)
        clamped = np.where(clamped > np.array(dims, dtype=np.float64), dims, clamped)
        total = np.zeros(n)  # summed left to right, as sum() adds a tuple
        for column in scores.T:
            total += column
        _check(run_rules + [  # in the order a file's line is checked
            (((repetition >= 0) & (repetition < bound)).astype(bool),
             lambda i: f"repetition {repetition[i]} out of range [0, {bound})"),
            *_box_rules(boxes),
            (_positive_area(clamped), lambda i: _area_message(  # a limit prints as given
                min(max(v, 0.0), lim) for v, lim in zip(boxes[i].tolist(), dims))),
            (((scores >= 0.0) & (scores <= 1.0)).all(axis=1),
             lambda i: f"scores must lie in [0, 1], got {tuple(scores[i].tolist())}"),
            (np.abs(total - 1.0) <= 1e-6,
             lambda i: f"scores must sum to 1 within 1e-6, got {float(total[i])}"),
        ], lambda row, message: RowError(row, message, "detection"))
        # After the rows: with n_repetitions < 1 every row is out of range,
        # and a row names its line in a file.
        if self.n_repetitions < 1:
            raise ValueError("n_repetitions must be positive")
        repetition = repetition.astype(np.int64)
        self._set_rows(clamped, scores, repetition, runs, offsets,
                       np.argsort(repetition, kind="stable"))

    def _set_rows(self, boxes, scores, repetition, runs, offsets, order) -> None:
        """Hold rows ``order`` of the given columns, read-only, as this set's rows."""
        starts = offsets[:-1][order]
        lengths = offsets[1:][order] - starts
        new_offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_offsets[1:])
        # Run j of the new column is run j - new start + old start of its row.
        taken = np.arange(new_offsets[-1]) + np.repeat(starts - new_offsets[:-1], lengths)
        columns = {"boxes": boxes[order], "scores": scores[order], "repetition": repetition[order],
                   "mask_runs": runs[taken], "mask_offsets": new_offsets}
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.repetition)

    __eq__ = _equal_fields

    def take(self, idx) -> "SampleSet":
        """The rows at the integer positions ``idx``, as a SampleSet (whose
        rows are sorted stably by repetition, as every SampleSet's are); they
        were checked when this set was built, so they are not checked again."""
        idx = np.asarray(idx, dtype=np.int64)
        out = copy.copy(self)
        out._set_rows(self.boxes, self.scores, self.repetition, self.mask_runs,
                      self.mask_offsets, idx[np.argsort(self.repetition[idx], kind="stable")])
        return out


def _positive_area(boxes: np.ndarray) -> np.ndarray:
    return (boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])


def _area_message(values) -> str:
    return f"box must have strictly positive area, got {tuple(values)}"


def _box_rules(boxes: np.ndarray) -> list:
    """The box rules over an (n, 4) float array of (x1, y1, x2, y2) rows, as
    (row passes, message for row i) pairs: finite, then positive area."""
    return [
        (np.isfinite(boxes).all(axis=1),
         lambda i: f"box coordinates must be finite, got {tuple(boxes[i].tolist())}"),
        (_positive_area(boxes), lambda i: _area_message(boxes[i].tolist())),
    ]


def _check_box(box) -> None:
    """Raise ValueError unless ``box`` is 4 values (x1, y1, x2, y2) that
    pass the box rules."""
    if len(box) != 4:
        raise ValueError(f"box needs 4 values, got {len(box)}: {tuple(box)}")
    _check(_box_rules(np.array([box], dtype=np.float64)), lambda row, message: ValueError(message))


def label_groups(labels) -> List[np.ndarray]:
    """Each label's positions in ascending order, by ascending label."""
    labels = np.asarray(labels, dtype=np.int64)
    if not len(labels):
        return []
    # np.unique is avoided because its plain form imports numpy.ma.
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    return np.split(order, np.flatnonzero(ordered[1:] != ordered[:-1]) + 1)


def box_ious(boxes: np.ndarray, ref: Sequence[float]) -> np.ndarray:
    """IoU of each (x1, y1, x2, y2) row of ``boxes`` against the box ``ref``;
    0.0 where they are disjoint or only touch."""
    x1, y1, x2, y2 = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T
    rx1, ry1, rx2, ry2 = ref
    ix = np.minimum(x2, rx2) - np.maximum(x1, rx1)
    iy = np.minimum(y2, ry2) - np.maximum(y1, ry1)
    inter = ix * iy
    union = (x2 - x1) * (y2 - y1) + (rx2 - rx1) * (ry2 - ry1) - inter
    return np.divide(inter, union, out=np.zeros(len(x1)), where=(ix > 0.0) & (iy > 0.0))


def mask_ious(runs: np.ndarray, offsets: np.ndarray, ref_runs: np.ndarray) -> np.ndarray:
    """Foreground IoU against the mask ``ref_runs`` of each mask in a run
    column of masks of its dims, in the column's order; a row with no runs
    has no mask and no IoU. An empty-vs-empty comparison gives 0.0: it
    carries no evidence and must not produce a fabricated perfect score.
    A mask of another pixel count than ``ref_runs`` is a ValueError.

    One pass over all masks in integer arithmetic: P(x), the count of
    ``ref`` pixels before flat pixel x, is read off ref's run bounds, and a
    mask's intersection with ``ref`` is the sum of P(end) - P(start) over
    its foreground runs. Each IoU is one int64 division, as exact as the
    division of Python ints for masks under 2^53 pixels.
    """
    pixels = int(ref_runs.sum())
    sizes = _row_sums(runs, offsets)[offsets[1:] > offsets[:-1]]
    if (sizes != pixels).any():
        raise ValueError(f"mask pixel counts differ: {sizes[sizes != pixels][0]} vs {pixels}")
    starts, ends, per_mask = _foreground_bounds(runs, offsets, pixels)
    ref_starts, ref_ends, _ = _foreground_bounds(ref_runs, np.array([0, ref_runs.size]), pixels)
    # A zero-length run at pixel 0 comes first, so every x >= 0 has a run
    # starting at or before it, even when ref is empty.
    ref_starts, ref_ends = np.concatenate(([0], ref_starts)), np.concatenate(([0], ref_ends))
    ref_lengths = ref_ends - ref_starts
    ref_before = np.cumsum(ref_lengths) - ref_lengths  # ref pixels before each run

    def covered(x: np.ndarray) -> np.ndarray:
        k = np.searchsorted(ref_starts, x, side="right") - 1  # last run starting <= x
        return ref_before[k] + np.minimum(x - ref_starts[k], ref_lengths[k])

    inter = _row_sums(covered(ends) - covered(starts), per_mask)
    union = _row_sums(ends - starts, per_mask) + ref_runs[1::2].sum() - inter
    return np.divide(inter, union, out=np.zeros(len(union)), where=union > 0)


def _foreground_bounds(
    runs: np.ndarray, offsets: np.ndarray, pixels: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The foreground runs of each mask of ``pixels`` pixels in a checked run
    column, concatenated: their half-open [start, end) flat-pixel bounds,
    and the offsets of each mask's runs among them."""
    lengths = np.diff(offsets)
    # Every mask's runs sum to ``pixels``, so the running sum over the column
    # exceeds the k-th mask's own bounds by k * pixels. int64 arithmetic is
    # modular, so the difference is exact even where the running sum wraps.
    ordinal = np.cumsum(lengths > 0) - 1
    bounds = np.cumsum(runs) - np.repeat(ordinal * pixels, lengths)
    position = np.arange(runs.size) - np.repeat(offsets[:-1], lengths)  # within its mask
    ends = np.flatnonzero(position % 2)  # foreground runs sit at odd positions
    per_mask = np.concatenate(([0], np.cumsum(lengths[lengths > 0] // 2)))
    return bounds[ends - 1], bounds[ends], per_mask


def rle_encode(bitmap) -> np.ndarray:
    """The runs of a non-empty row-major boolean grid, background run first."""
    grid = np.asarray(bitmap, dtype=bool)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError(f"bitmap must be a non-empty 2-D grid, got shape {grid.shape}")
    flat = grid.reshape(-1)
    # Boundaries between runs: positions where the value changes.
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    lengths = np.diff(np.concatenate(([0], change, [flat.size])))
    return np.concatenate(([0], lengths)) if flat[0] else lengths


def rle_decode(runs: np.ndarray, height: int, width: int) -> np.ndarray:
    """Decode the runs of a mask of height x width pixels into a row-major
    boolean grid."""
    values = np.arange(len(runs)) % 2 == 1
    return np.repeat(values, runs).reshape(height, width)


def rasterize_box(box: Sequence[float], height: int, width: int) -> np.ndarray:
    """Rasterize an (x1, y1, x2, y2) box on an integer pixel grid, as a boolean grid.

    A pixel is foreground iff its center lies inside the box. For boxes
    with integer coordinates this covers exactly columns [x1, x2) and
    rows [y1, y2).
    """
    cols = np.arange(width) + 0.5
    rows = np.arange(height) + 0.5
    x1, y1, x2, y2 = box
    return ((rows >= y1) & (rows < y2))[:, None] & ((cols >= x1) & (cols < x2))[None, :]
