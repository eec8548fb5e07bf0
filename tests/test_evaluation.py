from dataclasses import replace

import numpy as np
import pytest

from _files import read_text
from _reference import reference_match_and_score
from dropuq.evaluation import (
    GroundTruthInstance,
    PredictedInstance,
    cluster_to_detection,
    eval_csv,
    match_and_score,
    read_ground_truth,
    serialize_ground_truth,
)
from dropuq.ingest import ParseError
from dropuq.model import rasterize_box, rle_encode
from dropuq.report import class_stats
from dropuq.synth import generate
from _scenes import clusters_of, separated_scene


def pred(box, cls=1, conf=1.0, image="img", mask=None):
    return PredictedInstance(image, tuple(box), cls, conf, mask)


def gt(box, cls=1, image="img", mask=None):
    return GroundTruthInstance(image, tuple(box), cls, mask)


def box_mask(box, height, width):
    return rle_encode(rasterize_box(box, height, width))


def brute_force_ap(pr_points):
    """Oracle: 101-point AP from explicit (recall, precision) pairs via the
    envelope definition, computed without the library's cumulative logic."""
    total = 0.0
    for i in range(101):
        r = i / 100.0
        candidates = [p for rec, p in pr_points if rec >= r - 1e-12]
        total += max(candidates) if candidates else 0.0
    return total / 101.0


class TestClusterToDetection:
    def _cluster(self, seed=0, confusion=0.1):
        s, _, _ = generate(
            separated_scene(seed, 1, sigma=2.0, shape="ellipse",
                            class_confusion=confusion, height=200, width=300)
        )
        return clusters_of(s, seed)[0]

    def test_dominant_class_and_confidence(self):
        c = self._cluster()
        det = cluster_to_detection(c)
        stats = class_stats(c)
        assert det.class_id == int(np.argmax(stats.mean_scores[1:])) + 1
        assert det.confidence == stats.mean_scores[det.class_id]
        assert det.mask is not None

    def test_background_never_selected(self):
        for seed in range(5):
            # heavy confusion: background mean is large but never wins
            c = self._cluster(seed=seed, confusion=0.6)
            det = cluster_to_detection(c)
            assert det.class_id >= 1

    def test_detection_is_of_the_members_image(self):
        # Ground truth is matched only by predictions of its own image.
        s, _, gts = generate(
            separated_scene(0, 2, sigma=2.0, shape="ellipse", height=200, width=400)
        )
        preds = [cluster_to_detection(c) for c in clusters_of(s, 0)]
        assert {p.image_id for p in preds} == {s.image_id}
        named = [replace(p, image_id=s.image_id) for p in preds]
        for mode in ("box", "mask"):
            got = match_and_score(preds, gts, mode).map50
            assert got == match_and_score(named, gts, mode).map50 == 1.0

    def test_zero_mask_cluster_has_no_mask(self):
        s, _, _ = generate(separated_scene(3, 1, sigma=2.0, shape="none", height=200, width=300))
        det = cluster_to_detection(clusters_of(s, 3)[0])
        assert det.mask is None
        assert det.bbox is not None


class TestMatchAndScore:
    def test_perfect_predictions(self):
        gts = [gt((0, 0, 10, 10)), gt((20, 20, 40, 45), cls=2)]
        preds = [pred((0, 0, 10, 10)), pred((20, 20, 40, 45), cls=2)]
        res = match_and_score(preds, gts, mode="box")
        assert res.map50 == 1.0
        assert res.per_class_ap == {1: 1.0, 2: 1.0}

    def test_no_overlap_zero(self):
        gts = [gt((0, 0, 10, 10))]
        preds = [pred((50, 50, 60, 60))]
        res = match_and_score(preds, gts, mode="box")
        assert res.map50 == 0.0

    def test_three_pred_two_gt_matches_oracle(self):
        # two TPs around one mid-confidence FP:
        # rank 1 TP -> (R 0.5, P 1.0); rank 2 FP -> (0.5, 0.5); rank 3 TP -> (1.0, 2/3)
        gts = [gt((0, 0, 10, 10)), gt((100, 0, 110, 10))]
        preds = [
            pred((0, 0, 10, 10), conf=0.9),
            pred((50, 50, 60, 60), conf=0.8),
            pred((100, 0, 110, 10), conf=0.7),
        ]
        res = match_and_score(preds, gts, mode="box")
        oracle = brute_force_ap([(0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3)])
        assert oracle == pytest.approx((51 * 1.0 + 50 * (2 / 3)) / 101, abs=1e-12)
        assert res.per_class_ap[1] == pytest.approx(oracle, abs=1e-12)

    def test_adding_confident_tp_never_decreases_ap(self):
        gts = [gt((0, 0, 10, 10)), gt((100, 0, 110, 10)), gt((200, 0, 210, 10))]
        preds = [
            pred((0, 0, 10, 10), conf=0.8),
            pred((55, 0, 62, 10), conf=0.6),
        ]
        base = match_and_score(preds, gts, mode="box").per_class_ap[1]
        better = preds + [pred((100, 0, 110, 10), conf=0.99)]
        boosted = match_and_score(better, gts, mode="box").per_class_ap[1]
        assert boosted >= base

    def test_equal_confidence_deterministic(self):
        gts = [gt((0, 0, 10, 10))]
        preds = [
            pred((0, 0, 10, 10), conf=0.5),
            pred((0.5, 0, 10.5, 10), conf=0.5),
        ]
        a = match_and_score(preds, gts, mode="box")
        b = match_and_score(preds, gts, mode="box")
        assert a.per_class_ap == b.per_class_ap
        assert a.matches == b.matches
        # input order breaks the tie: first pred wins the gt
        assert a.matches[0].gt_index == 0
        assert a.matches[1].gt_index is None

    def test_greedy_prefers_highest_iou(self):
        gts = [gt((0, 0, 10, 10)), gt((4, 0, 14, 10))]
        preds = [pred((3, 0, 13, 10), conf=0.9), pred((0, 0, 10, 10), conf=0.8)]
        res = match_and_score(preds, gts, mode="box")
        # first pred overlaps gt1 with higher IoU than gt0
        assert res.matches[0].gt_index == 1
        assert res.matches[1].gt_index == 0

    def test_box_equals_mask_for_rasterized_boxes(self):
        boxes_gt = [(0, 0, 10, 10), (20, 5, 34, 19)]
        boxes_pred = [(1, 0, 11, 10), (20, 5, 34, 19), (50, 50, 60, 60)]
        h = w = 70
        gts = [gt(b, mask=box_mask(b, h, w)) for b in boxes_gt]
        preds = [
            pred(b, conf=0.9 - 0.1 * i, mask=box_mask(b, h, w))
            for i, b in enumerate(boxes_pred)
        ]
        res_box = match_and_score(preds, gts, mode="box")
        res_mask = match_and_score(preds, gts, mode="mask")
        assert res_box.map50 == res_mask.map50
        assert res_box.per_class_ap == res_mask.per_class_ap

    def test_mask_mode_missing_mask_is_fp(self):
        gts = [gt((0, 0, 10, 10), mask=box_mask((0, 0, 10, 10), 20, 20))]
        preds = [pred((0, 0, 10, 10), conf=0.9, mask=None)]
        res = match_and_score(preds, gts, mode="mask")
        assert res.map50 == 0.0

    def test_mask_mode_rejects_masks_of_other_pixel_counts(self):
        gts = [gt((0, 0, 5, 5), mask=box_mask((0, 0, 5, 5), 20, 30))]
        preds = [pred((0, 0, 5, 5), conf=0.9, mask=box_mask((0, 0, 5, 5), 10, 10))]
        with pytest.raises(ValueError, match=r"^mask pixel counts differ: 600 vs 100$"):
            match_and_score(preds, gts, mode="mask")
        assert match_and_score(preds, gts, mode="box").map50 == 1.0

    def test_empty_gts_map_absent(self):
        res = match_and_score([pred((0, 0, 5, 5))], [], mode="box")
        assert res.map50 is None
        assert res.per_class_ap == {}

    def test_class_without_predictions_scores_zero(self):
        gts = [gt((0, 0, 10, 10)), gt((30, 30, 40, 40), cls=2)]
        preds = [pred((0, 0, 10, 10), conf=1.0)]
        res = match_and_score(preds, gts, mode="box")
        assert res.per_class_ap == {1: 1.0, 2: 0.0}
        assert res.map50 == 0.5

    def test_cross_image_isolation(self):
        gts = [gt((0, 0, 10, 10), image="a")]
        preds = [pred((0, 0, 10, 10), image="b", conf=1.0)]
        res = match_and_score(preds, gts, mode="box")
        assert res.map50 == 0.0

    def test_iou_of_exactly_one_half_matches(self):
        gts = [gt((0, 0, 4, 6), mask=box_mask((0, 0, 4, 6), 8, 8))]
        preds = [pred((0, 0, 2, 6), mask=box_mask((0, 0, 2, 6), 8, 8))]
        for mode in ("box", "mask"):
            res = match_and_score(preds, gts, mode=mode)
            assert (res.matches[0].gt_index, res.matches[0].iou) == (0, 0.5)


# Two images of different dims, so a mask of one must never meet the other's.
IMAGES = {"a": (12, 16), "b": (9, 7)}


def random_instance(rng, image, box=None):
    """(box, mask runs or None) on ``image``; a random box unless given."""
    h, w = IMAGES[image]
    if box is None:
        x1, y1 = int(rng.integers(0, w - 1)), int(rng.integers(0, h - 1))
        box = (x1, y1, int(rng.integers(x1 + 1, w + 1)), int(rng.integers(y1 + 1, h + 1)))
    if rng.random() < 0.25:
        return box, None
    grid = rasterize_box(box, h, w)
    if rng.random() < 0.5:
        grid = grid ^ (rng.random((h, w)) < 0.1)
    return box, rle_encode(grid)


def random_match_case(rng):
    """Ground truth of both images and predictions drawn to tie in confidence
    and to copy or halve a ground-truth box (IoU 1, or exactly 0.5 for an
    even width), next to random boxes."""
    gts = []
    for _ in range(int(rng.integers(0, 9))):
        image = str(rng.choice(list(IMAGES)))
        box, mask = random_instance(rng, image)
        gts.append(gt(box, cls=int(rng.integers(1, 4)), image=image, mask=mask))
    preds = []
    for _ in range(int(rng.integers(0, 11))):
        kind = int(rng.integers(3)) if gts else 0
        if kind:
            g = gts[int(rng.integers(len(gts)))]
            x1, y1, x2, y2 = g.bbox
            box = (x1, y1, x2, y2) if kind == 1 else (x1, y1, x1 + (x2 - x1) / 2, y2)
            image, cls = g.image_id, g.class_id if rng.random() < 0.8 else 1
        else:
            image, box, cls = str(rng.choice(list(IMAGES))), None, int(rng.integers(1, 4))
        box, mask = random_instance(rng, image, box)
        preds.append(pred(box, cls=cls, conf=float(rng.choice([0.3, 0.6, 0.9])),
                          image=image, mask=mask))
    return preds, gts


class TestMatchAgainstReference:
    """One kernel call per prediction matches the per-pair reference matcher."""

    @pytest.mark.parametrize("mode", ["box", "mask"])
    def test_random_sets(self, mode):
        rng = np.random.default_rng(51)
        seen = {"tie": 0, "half": 0, "matched": 0}
        for _ in range(400):
            preds, gts = random_match_case(rng)
            got = match_and_score(preds, gts, mode=mode)
            want = reference_match_and_score(preds, gts, mode=mode)
            assert (got.per_class_ap, got.map50, got.matches) == (
                want.per_class_ap, want.map50, want.matches)
            confs = [p.confidence for p in preds]
            seen["tie"] += len(set(confs)) < len(confs)
            seen["half"] += any(m.iou == 0.5 for m in got.matches)
            seen["matched"] += any(m.gt_index is not None for m in got.matches)
        assert min(seen.values()) >= 10, seen


class TestGroundTruthIo:
    def test_round_trip(self):
        gts = [
            gt((0, 0, 10.5, 10.25)),
            gt((3, 4, 8, 9), cls=2, mask=box_mask((3, 4, 8, 9), 20, 30)),
        ]
        text = serialize_ground_truth(gts)
        assert read_text(read_ground_truth, text, "img", 20, 30) == gts
        assert gts[1] != gt((3, 4, 8, 9), cls=2, mask=box_mask((3, 4, 8, 10), 20, 30))
        assert gts[1] != gt((3, 4, 8, 9), cls=2)

    def test_only_the_image_is_returned_and_its_masks_checked(self):
        # Line 2 is a 10 x 10 image's mask: it is typed but not held to 20 x 30.
        lines = [
            gt((0, 0, 5, 5), mask=box_mask((0, 0, 5, 5), 20, 30)),
            gt((0, 0, 5, 5), image="other", mask=box_mask((0, 0, 5, 5), 10, 10)),
            gt((1, 1, 4, 4), cls=2),
        ]
        got = read_text(read_ground_truth, serialize_ground_truth(lines), "img", 20, 30)
        assert got == [lines[0], lines[2]]
        other = read_text(read_ground_truth, serialize_ground_truth(lines), "other", 10, 10)
        assert other == [lines[1]]
        with pytest.raises(ParseError, match="^line 1: runs sum to 600, expected 100$"):
            read_text(read_ground_truth, serialize_ground_truth(lines[:1]), "img", 10, 10)

    def test_rejects_background_class(self):
        with pytest.raises(ParseError):
            read_text(
                read_ground_truth, '{"image_id": "a", "bbox": [0, 0, 5, 5], "class_id": 0}', "a",
                10, 10,
            )

    def test_csv_has_summary_rows(self):
        gts = [gt((0, 0, 10, 10))]
        preds = [pred((0, 0, 10, 10))]
        res_box = match_and_score(preds, gts, mode="box")
        res_mask = match_and_score(preds, gts, mode="mask")
        text = eval_csv([res_box, res_mask])
        lines = text.strip().split("\n")
        assert lines[0] == "mode,class_id,ap"
        assert any(ln.startswith("box,mAP,") for ln in lines)
        assert any(ln.startswith("mask,mAP,") for ln in lines)
