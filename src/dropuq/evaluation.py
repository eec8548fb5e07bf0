"""Matching clustered predictions to ground truth and mAP at IoU 0.5.

AP follows the 101-point interpolation convention: precision is sampled at
recalls 0.00, 0.01, ..., 1.00 using the running-maximum envelope, and mAP
averages over classes with at least one ground-truth instance.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .ingest import _INT, _REAL, _STR, ParseError, _array, _jsonl_records, _read_file, _scalar
from .model import (
    SampleSet, _check, _check_box, _double, _equal_fields, _run_column, box_ious, mask_ious,
)

__all__ = [
    "GroundTruthInstance",
    "PredictedInstance",
    "MatchRecord",
    "EvalResult",
    "cluster_to_detection",
    "match_and_score",
    "read_ground_truth",
    "serialize_ground_truth",
    "eval_csv",
]

_GT_KEYS = ["image_id", "bbox", "class_id"]
_IOU_THRESHOLD = 0.5  # a prediction matches ground truth at IoU >= this


@dataclass(frozen=True, eq=False)
class GroundTruthInstance:
    image_id: str
    bbox: Tuple[float, float, float, float]  # checked by the box rules
    class_id: int  # foreground class, >= 1
    mask: Optional[np.ndarray] = None  # the mask's runs

    def __post_init__(self):
        _check_box(self.bbox)
        if self.class_id < 1:
            raise ValueError(f"class_id must be a foreground class, got {self.class_id}")

    __eq__ = _equal_fields


@dataclass(frozen=True, eq=False)
class PredictedInstance:
    image_id: str
    bbox: Tuple[float, float, float, float]
    class_id: int
    confidence: float
    mask: Optional[np.ndarray] = None  # the mask's runs

    __eq__ = _equal_fields


@dataclass(frozen=True)
class MatchRecord:
    image_id: str
    pred_index: int          # index into the prediction list
    class_id: int
    confidence: float
    gt_index: Optional[int]  # index into the ground-truth list, None for FP
    iou: float


@dataclass(frozen=True)
class EvalResult:
    mode: str                          # "box" or "mask"
    per_class_ap: Dict[int, float]     # classes with >= 1 ground truth
    map50: Optional[float]             # None without ground truth
    matches: Tuple[MatchRecord, ...]


def cluster_to_detection(
    members: SampleSet, mask_threshold: float = 0.5, with_mask: bool = True
) -> PredictedInstance:
    """Collapse the members of a cluster into a single detection of their image.

    Box = mean box, class = best foreground mean score (background never
    wins), confidence = that mean score, mask = consensus at the threshold
    unless zero_mask. With with_mask False the consensus is not built and
    mask is None; the threshold is checked either way. No report is built.
    """
    from .report import _check_mask_threshold, box_stats, class_stats, mask_stats

    fg_means = class_stats(members).mean_scores[1:]
    class_id = 1 + int(np.argmax(fg_means))
    mask = None
    if with_mask:
        masks = mask_stats(members, mask_threshold)
        if not masks.zero_mask:
            mask = masks.consensus_runs
    else:
        _check_mask_threshold(mask_threshold)
    return PredictedInstance(
        image_id=members.image_id,
        bbox=box_stats(members).mean_box,
        class_id=class_id,
        confidence=float(fg_means[class_id - 1]),
        mask=mask,
    )


def _ious(pred: PredictedInstance, gts: Sequence[GroundTruthInstance], mode: str) -> np.ndarray:
    """IoU of ``pred`` against each of ``gts``, all of its image, in one kernel
    call; in mask mode a missing mask on either side scores 0."""
    if mode == "box":
        return box_ious(np.array([g.bbox for g in gts]), pred.bbox)
    ious = np.zeros(len(gts))
    has_mask = np.array([g.mask is not None for g in gts], dtype=bool)
    if pred.mask is not None and has_mask.any():
        runs = [g.mask for g in gts if g.mask is not None]
        offsets = np.cumsum([0] + [r.size for r in runs])
        ious[has_mask] = mask_ious(np.concatenate(runs), offsets, pred.mask)
    return ious


def _interpolated_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    """101-point interpolated AP from cumulative PR points."""
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        reachable = precision[recall >= r]
        ap += float(reachable.max()) if reachable.size else 0.0
    return ap / 101.0


def match_and_score(
    preds: Sequence[PredictedInstance],
    gts: Sequence[GroundTruthInstance],
    mode: str = "box",
) -> EvalResult:
    """Greedy confidence-ordered matching and per-class AP.

    Predictions are taken by class, then descending confidence (input order
    breaks ties), and each matches the unmatched same-image ground truth of
    its class with the highest IoU >= 0.5, the first in input order on a
    tie. Predictions of a class without ground truth are not scored. In
    mask mode a missing mask on either side scores IoU 0, and the masks of
    one image must have that image's dims. An empty ground-truth set leaves
    mAP absent.
    """
    if mode not in ("box", "mask"):
        raise ValueError(f"mode must be 'box' or 'mask', got {mode!r}")
    candidates: Dict[Tuple[int, str], List[int]] = {}  # ground truth by (class, image)
    for gi, g in enumerate(gts):
        candidates.setdefault((g.class_id, g.image_id), []).append(gi)
    n_gt = Counter(g.class_id for g in gts)
    order = sorted(
        (pi for pi, p in enumerate(preds) if p.class_id in n_gt),
        key=lambda pi: (preds[pi].class_id, -preds[pi].confidence),
    )
    gt_matched = np.zeros(len(gts), dtype=bool)
    matches: List[MatchRecord] = []
    for pi in order:
        pred = preds[pi]
        same_image = candidates.get((pred.class_id, pred.image_id), [])
        best_iou, best_gt = 0.0, None
        if same_image:
            ious = _ious(pred, [gts[gi] for gi in same_image], mode)
            ious[gt_matched[same_image]] = 0.0  # matched ground truth is taken
            k = int(np.argmax(ious))  # the first maximum
            if ious[k] >= _IOU_THRESHOLD:
                best_iou, best_gt = float(ious[k]), same_image[k]
                gt_matched[best_gt] = True
        matches.append(
            MatchRecord(pred.image_id, pi, pred.class_id, pred.confidence, best_gt, best_iou)
        )

    per_class_ap = dict.fromkeys(sorted(n_gt), 0.0)  # a class without predictions scores 0
    for cls, records in groupby(matches, key=lambda m: m.class_id):
        cum_tp = np.cumsum([m.gt_index is not None for m in records])
        rank = np.arange(1, cum_tp.size + 1)
        per_class_ap[cls] = _interpolated_ap(cum_tp / n_gt[cls], cum_tp / rank)
    map50 = sum(per_class_ap.values()) / len(per_class_ap) if per_class_ap else None
    return EvalResult(mode=mode, per_class_ap=per_class_ap, map50=map50, matches=tuple(matches))


def read_ground_truth(path, image_id: str, height: int, width: int) -> List[GroundTruthInstance]:
    """Read line-delimited {"image_id", "bbox", "class_id", "mask_runs"?}
    and return the instances of ``image_id``, an image of height x width.

    Every line's types, box and class are checked; only that image's mask
    runs are checked, by the run rules for its dims.
    """
    return _read_file(_ground_truth, _ground_truth, path, image_id, height, width)


def _ground_truth(
    lines: Iterable[str], loads: Callable, image_id: str, height: int, width: int
) -> List[GroundTruthInstance]:
    kept, masks = [], []  # the image's (line number, instance) pairs and mask runs
    for lineno, obj in _jsonl_records(lines, loads, _GT_KEYS, ["mask_runs"]):
        gt_image = _scalar(obj, "image_id", _STR, lineno)
        box_vals = _array(obj, "bbox", _REAL, lineno, length=4)
        class_id = _scalar(obj, "class_id", _INT, lineno)
        runs = _array(obj, "mask_runs", _INT, lineno) if "mask_runs" in obj else None
        try:
            gt = GroundTruthInstance(gt_image, tuple(map(_double, box_vals)), class_id)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
        if gt_image == image_id:
            kept.append((lineno, gt))
            masks.append(runs)
    runs, offsets, rules = _run_column(masks, height * width)
    _check(rules, lambda row, message: ParseError(kept[row][0], message))
    runs.flags.writeable = False
    bounds = zip(offsets[:-1].tolist(), offsets[1:].tolist())
    return [replace(gt, mask=runs[a:b] if b > a else None) for (_, gt), (a, b) in zip(kept, bounds)]


def serialize_ground_truth(gts: Sequence[GroundTruthInstance]) -> str:
    lines = []
    for g in gts:
        rec = {
            "image_id": g.image_id,
            "bbox": list(g.bbox),
            "class_id": g.class_id,
        }
        if g.mask is not None:
            rec["mask_runs"] = g.mask.tolist()
        lines.append(json.dumps(rec))
    return "\n".join(lines) + ("\n" if lines else "")


def eval_csv(results: Sequence[EvalResult]) -> str:
    """Per-class AP rows plus a summary row per evaluated mode."""
    out = ["mode,class_id,ap"]
    for res in results:
        for cls in sorted(res.per_class_ap):
            out.append(f"{res.mode},{cls},{res.per_class_ap[cls]!r}")
        out.append(f"{res.mode},mAP,{'' if res.map50 is None else repr(res.map50)}")
    return "\n".join(out) + "\n"
