"""Checks of the program's outputs, made apart from the program.

Nothing here imports dropuq: the RLE decoder, the adjusted Rand index, the
box/mask matching with 101-point AP and the NLL minimiser are the
benchmark's own, and `selftest` checks them on hand-built cases. Each
check function returns a list of (name, ok, detail) and the workload's
quality score; no check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize_scalar

import workloads

Check = Tuple[str, bool, str]
TOL = 1e-9


# ---------------------------------------------------------------- oracles

def read_jsonl(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def rle_counts(runs_list: Sequence[Sequence[int]], height: int, width: int) -> np.ndarray:
    """Per-pixel foreground counts over several RLE masks, via a difference array.

    Runs alternate background/foreground starting with background, row-major.
    """
    diff = np.zeros(height * width + 1, dtype=np.int64)
    for runs in runs_list:
        ends = np.cumsum(np.asarray(runs, dtype=np.int64))
        if ends.size == 0 or ends[-1] != height * width:
            raise ValueError(f"runs do not cover {height}x{width}")
        starts = np.concatenate(([0], ends[:-1]))
        fg = np.arange(ends.size) % 2 == 1
        np.add.at(diff, starts[fg], 1)
        np.add.at(diff, ends[fg], -1)
    return np.cumsum(diff[:-1]).reshape(height, width)


def rle_bool(runs: Sequence[int], height: int, width: int) -> np.ndarray:
    return rle_counts([runs], height, width) > 0


def bool_iou(a: np.ndarray, b: np.ndarray) -> float:
    union = int(np.count_nonzero(a | b))
    return int(np.count_nonzero(a & b)) / union if union else 0.0


def box_iou(a: Sequence[float], b: Sequence[float]) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def ari(a: Sequence[int], b: Sequence[int]) -> float:
    """Adjusted Rand index (Hubert and Arabie) from the contingency table."""
    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    pairs = lambda x: float((x * (x - 1) // 2).sum())  # noqa: E731
    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([ai.size]))
    top = (rows + cols) / 2.0
    return 1.0 if top == expected else (index - expected) / (top - expected)


def average_precision(hits: Sequence[bool], n_gt: int) -> float:
    """101-point interpolated AP of a confidence-ordered hit list."""
    hits = np.asarray(hits, dtype=bool)
    if hits.size == 0:
        return 0.0
    tp = np.cumsum(hits)
    recall = tp / n_gt
    precision = tp / np.arange(1, hits.size + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    points = []
    for r in np.linspace(0.0, 1.0, 101):
        idx = np.flatnonzero(recall >= r)
        points.append(envelope[idx[0]] if idx.size else 0.0)
    return float(np.mean(points))


def mean_ap(preds: List[dict], gts: List[dict], iou) -> float:
    """Greedy matching per class by descending confidence (input order on ties)."""
    aps = []
    for cls in sorted({g["class_id"] for g in gts}):
        gt_idx = [i for i, g in enumerate(gts) if g["class_id"] == cls]
        cand = sorted(
            (p for p in preds if p["class_id"] == cls), key=lambda p: -p["confidence"]
        )
        taken = set()
        hits = []
        for p in cand:
            best, best_iou = None, 0.0
            for gi in gt_idx:
                if gi in taken:
                    continue
                v = iou(p, gts[gi])
                if v >= 0.5 and v > best_iou:
                    best, best_iou = gi, v
            if best is not None:
                taken.add(best)
            hits.append(best is not None)
        aps.append(average_precision(hits, len(gt_idx)))
    return sum(aps) / len(aps)


def nll(z: np.ndarray, y: np.ndarray, t: float) -> float:
    zt = z / t
    m = zt.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(zt - m).sum(axis=1))
    return float((lse - zt[np.arange(y.size), y]).sum())


def nll_minimiser(z: np.ndarray, y: np.ndarray) -> float:
    """Temperature minimising the NLL: bounded Brent search on log T."""
    res = minimize_scalar(
        lambda u: nll(z, y, math.exp(u)),
        bounds=(math.log(0.05), math.log(20.0)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return math.exp(res.x)


def read_pgm(path: Path) -> np.ndarray:
    data = Path(path).read_bytes()
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    if magic != b"P5" or maxval != b"255" or len(pixels) != w * h:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def tree_digest(root: Path) -> str:
    """Digest of every file below root except manifest.json (it names the out dir)."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def selftest() -> List[str]:
    """Check the oracles on hand-built cases; returns the failures."""
    bad = []
    grid = rle_bool([0, 2, 1, 3], 2, 3)
    if grid.tolist() != [[True, True, False], [True, True, True]]:
        bad.append("rle decode")
    counts = rle_counts([[0, 2, 1, 3], [4, 2]], 2, 3)
    if counts.tolist() != [[1, 1, 0], [1, 2, 2]]:
        bad.append("rle counts")
    if ari([0, 0, 1, 1], [5, 5, 2, 2]) != 1.0 or abs(
        ari([0, 0, 1, 1], [0, 0, 1, 2]) - 4.0 / 7.0
    ) > 1e-12:
        bad.append("ari")
    # One class, two ground truths; hits at ranks 1 and 3: precision 1, 1/2,
    # 2/3 at recall 1/2, 1/2, 1, so AP = (51 * 1 + 50 * 2/3) / 101.
    gts = [{"class_id": 1, "bbox": [0, 0, 10, 10]}, {"class_id": 1, "bbox": [20, 0, 30, 10]}]
    preds = [
        {"class_id": 1, "confidence": 0.9, "bbox": [0, 0, 10, 10]},
        {"class_id": 1, "confidence": 0.8, "bbox": [50, 50, 60, 60]},
        {"class_id": 1, "confidence": 0.7, "bbox": [21, 0, 31, 10]},
    ]
    got = mean_ap(preds, gts, lambda p, g: box_iou(p["bbox"], g["bbox"]))
    if abs(got - (51.0 + 50.0 * 2.0 / 3.0) / 101.0) > 1e-12:
        bad.append("average precision")
    # Two classes, logits (0, 2), three of four labels correct: the NLL
    # optimum puts sigmoid(2 / T) at 3/4, so T = 2 / ln 3.
    z = np.array([[0.0, 2.0]] * 4)
    y = np.array([1, 1, 1, 0])
    if abs(nll_minimiser(z, y) - 2.0 / math.log(3.0)) > 1e-6:
        bad.append("nll minimiser")
    return bad


# ---------------------------------------------------------------- clusters

def _clusters(samples_path: Path, clusters_path: Path):
    """Own reading of the samples and clusters files.

    Returns the header, the indices of detections kept by the background
    filter, the clusters document and the members of each cluster id.
    """
    lines = read_jsonl(samples_path)
    header, dets = lines[0], lines[1:]
    doc = json.loads(clusters_path.read_text(encoding="utf-8"))
    kept = [i for i, d in enumerate(dets) if d["scores"][0] <= doc["background_threshold"]]
    members: Dict[int, List[dict]] = {}
    for i, label in zip(kept, doc["labels"]):
        members.setdefault(label, []).append(dets[i])
    return header, kept, doc, members


def _report_checks(
    stem: str, report_dir: Path, doc: dict, members: Dict[int, List[dict]]
) -> Tuple[List[Check], List[dict]]:
    """Cluster sizes, mean boxes and class means against numpy over the members."""
    out: List[Check] = []
    reports = []
    sizes_ok = sorted(members) == list(range(len(doc["clusters"]))) and all(
        c["size"] == len(members[c["cluster_id"]]) for c in doc["clusters"]
    )
    out.append((f"{stem}: cluster sizes match labels", sizes_ok, ""))
    box_err = cls_err = 0.0
    for cid in sorted(members):
        rep = json.loads((report_dir / f"{stem}_cluster_{cid:03d}_report.json").read_text())
        boxes = np.array([m["bbox"] for m in members[cid]], dtype=np.float64)
        scores = np.array([m["scores"] for m in members[cid]], dtype=np.float64)
        box_err = max(box_err, float(np.abs(boxes.mean(axis=0) - rep["box"]["mean"]).max()))
        cls_err = max(cls_err, float(np.abs(scores.mean(axis=0) - rep["classes"]["mean"]).max()))
        reports.append(rep)
    out.append((f"{stem}: mean boxes", box_err <= TOL, f"max error {box_err:g}"))
    out.append((f"{stem}: class means", cls_err <= TOL, f"max error {cls_err:g}"))
    return out, reports


def _predictions(reports: List[dict]) -> List[dict]:
    preds = []
    for rep in reports:
        fg = rep["classes"]["mean"][1:]
        cls = int(np.argmax(fg))
        preds.append({
            "bbox": rep["box"]["mean"],
            "class_id": cls + 1,
            "confidence": fg[cls],
            "runs": None if rep["mask"]["zero_mask"] else rep["mask"]["consensus_runs"],
        })
    return preds


def _eval_rows(path: Path) -> Dict[str, float]:
    with open(path, newline="") as fh:
        return {r["mode"]: float(r["ap"]) for r in csv.DictReader(fh) if r["class_id"] == "mAP"}


def _map_checks(stem: str, preds: List[dict], gt_path: Path, eval_csv: Path,
                modes: Sequence[str], h: int, w: int) -> List[Check]:
    gts = read_jsonl(gt_path)
    rows = _eval_rows(eval_csv)
    out = []
    for mode in modes:
        if mode == "box":
            mine = mean_ap(preds, gts, lambda p, g: box_iou(p["bbox"], g["bbox"]))
        else:
            def iou(p, g):
                if p["runs"] is None or "mask_runs" not in g:
                    return 0.0
                return bool_iou(rle_bool(p["runs"], h, w), rle_bool(g["mask_runs"], h, w))
            mine = mean_ap(preds, gts, iou)
        got = rows.get(mode, float("nan"))
        out.append((f"{stem}: {mode} mAP recomputed", abs(mine - got) <= TOL,
                    f"program {got!r}, recomputed {mine!r}"))
    return out


# ---------------------------------------------------------------- workloads

def check_masks(in_dir: Path, out_dir: Path) -> Tuple[List[Check], float]:
    samples = in_dir / "masks_samples.jsonl"
    header, _, doc, members = _clusters(samples, out_dir / "cluster" / "masks_clusters.json")
    h, w = header["height"], header["width"]
    out, reports = _report_checks("masks", out_dir / "report", doc, members)
    mean_ok = std_ok = cons_ok = True
    for rep in reports:
        cid = rep["cluster_id"]
        runs = [m["mask_runs"] for m in members[cid] if "mask_runs" in m]
        p = rle_counts(runs, h, w) / len(runs)
        stem = out_dir / "report" / f"masks_cluster_{cid:03d}"
        mean_ok &= bool(np.array_equal(read_pgm(Path(f"{stem}_mask_mean.pgm")),
                                       np.rint(p * 255.0).astype(np.uint8)))
        std = read_pgm(Path(f"{stem}_mask_std.pgm")).astype(np.int64)
        std_ok &= int(np.abs(std - np.rint(np.sqrt(p * (1 - p)) * 255.0)).max()) <= 1
        consensus = rle_bool(rep["mask"]["consensus_runs"], h, w)
        cons_ok &= bool(np.array_equal(consensus, p >= rep["mask"]["threshold"]))
    out += [
        ("masks: mean PGM equals per-pixel counts / n", mean_ok, ""),
        ("masks: std PGM within one grey level of sqrt(p(1-p))", std_ok, ""),
        ("masks: consensus equals mean >= threshold", cons_ok, ""),
    ]
    preds = _predictions(reports)
    out += _map_checks("masks", preds, in_dir / "masks_gt.jsonl", out_dir / "eval" / "eval.csv",
                       ("box", "mask"), h, w)
    gt_masks = [rle_bool(g["mask_runs"], h, w) for g in read_jsonl(in_dir / "masks_gt.jsonl")]
    cons = [rle_bool(p["runs"], h, w) for p in preds if p["runs"] is not None]
    quality = min(max((bool_iou(c, g) for c in cons), default=0.0) for g in gt_masks)
    out.append(("masks: every instance has a consensus mask", quality > 0.0,
                f"min IoU {quality:.4f}"))
    return out, quality


def check_crowded(in_dir: Path, out_dir: Path) -> Tuple[List[Check], float]:
    out: List[Check] = []
    aris = []
    for image_id in workloads.CROWD_IMAGES:
        samples = in_dir / f"{image_id}_samples.jsonl"
        truth = json.loads((in_dir / f"{image_id}_labels.json").read_text())["true_labels"]
        header, kept, doc, members = _clusters(samples, out_dir / "bgm" / f"{image_id}_clusters.json")
        truth = [truth[i] for i in kept]
        aris.append(ari(truth, doc["labels"]))
        agg = json.loads((out_dir / "agg" / f"{image_id}_clusters.json").read_text())
        agg_ari = ari(truth, agg["labels"])
        out.append((f"{image_id}: Ward ARI is 1", agg_ari == 1.0, f"ARI {agg_ari!r}"))
        checks, reports = _report_checks(image_id, out_dir / f"report_{image_id}", doc, members)
        out += checks
        out.append((f"{image_id}: box-only reports are zero-mask",
                    all(r["mask"]["zero_mask"] and r["mask"]["coverage_count"] == 0
                        for r in reports), ""))
        out += _map_checks(image_id, _predictions(reports), in_dir / f"{image_id}_gt.jsonl",
                           out_dir / f"eval_{image_id}" / "eval.csv", ("box",),
                           header["height"], header["width"])
    return out, min(aris)


def check_calib(in_dir: Path, out_dir: Path) -> Tuple[List[Check], float]:
    records = read_jsonl(in_dir / "records.jsonl")
    z = np.array([r["logits"] for r in records], dtype=np.float64)
    y = np.array([r["true_class"] for r in records], dtype=np.int64)
    cal = out_dir / "calibrate"
    result = json.loads((cal / "temperature.json").read_text())
    t_hat = result["temperature"]
    t_oracle = nll_minimiser(z, y)
    rel_err = abs(t_hat - t_oracle) / t_oracle
    out: List[Check] = [
        ("calib: T matches the NLL minimiser", rel_err <= 1e-3,
         f"T {t_hat!r}, oracle {t_oracle!r}"),
        ("calib: NLL(T) <= NLL(1)", nll(z, y, t_hat) <= nll(z, y, 1.0), ""),
    ]
    accuracy = float(np.mean(z.argmax(axis=1) == y))
    for side in ("before", "after"):
        with open(cal / f"reliability_{side}.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh)]
        counts = [int(r["count"]) for r in rows]
        filled = [r for r in rows if int(r["count"])]
        acc = sum(float(r["accuracy"]) * int(r["count"]) for r in filled) / len(records)
        gaps = [abs(float(r["accuracy"]) - float(r["confidence"])) for r in filled]
        out += [
            (f"calib: {side} bin counts sum to the record count", sum(counts) == len(records), ""),
            (f"calib: {side} accuracy equals argmax accuracy", abs(acc - accuracy) <= TOL,
             f"{acc!r} vs {accuracy!r}"),
            (f"calib: ace_{side} matches its bins", abs(sum(gaps) / len(gaps)
                                                         - result[f"ace_{side}"]) <= TOL, ""),
        ]
    out.append(("calib: ACE after < ACE before", result["ace_after"] < result["ace_before"], ""))
    return out, 1.0 - rel_err


def check(workload: str, in_dir: Path, out_dir: Path) -> Tuple[List[Check], float]:
    """All checks of one workload's output tree, and its quality score."""
    return {"masks": check_masks, "crowded": check_crowded, "calib": check_calib}[workload](
        in_dir, out_dir
    )
