import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    mask_rows,
    reference_box_iou,
    reference_foreground_intervals,
    reference_mask_iou,
    reference_runs,
    run_column,
)
from _scenes import simple_set
from dropuq.clustering import split_labels
from dropuq.evaluation import GroundTruthInstance, _ground_truth
from dropuq.ingest import ParseError
from dropuq.model import (
    RowError,
    SampleSet,
    _check_box,
    _foreground_bounds,
    box_ious,
    label_groups,
    mask_ious,
    rasterize_box,
    rle_decode,
    rle_encode,
)
from dropuq.synth import InstanceSpec, scene_spec_from_json

boxes = st.builds(
    lambda x1, y1, w, h: (x1, y1, x1 + w, y1 + h),
    st.floats(-50, 500),
    st.floats(-50, 500),
    st.floats(0.5, 200),
    st.floats(0.5, 200),
)


def box_iou(a, b):
    """IoU of two boxes through the column kernel."""
    return float(box_ious(np.array([a]), b)[0])


def mask_iou(a, b):
    """IoU of two masks' runs through the column kernel."""
    return float(mask_ious(a, np.array([0, a.size]), b)[0])


BAD_BOXES = [  # (box, the box rules' message)
    ((0, 0, float("nan"), 10), "box coordinates must be finite, got (0.0, 0.0, nan, 10.0)"),
    ((0, 0, float("inf"), 10), "box coordinates must be finite, got (0.0, 0.0, inf, 10.0)"),
    ((0, 0, 0, 10), "box must have strictly positive area, got (0.0, 0.0, 0.0, 10.0)"),
    ((0, 3, 10, 3), "box must have strictly positive area, got (0.0, 3.0, 10.0, 3.0)"),
    ((10, 0, 0, 10), "box must have strictly positive area, got (10.0, 0.0, 0.0, 10.0)"),
]


class TestBoxRules:
    """The box rules are defined once and word a bad box alike wherever it enters."""

    def test_invalid_boxes_rejected(self):
        # Each bad box gives one message through the one-row check, a
        # SampleSet row, a ground-truth line, a scene-spec instance and a
        # directly built GroundTruthInstance or InstanceSpec.
        for box, message in BAD_BOXES:
            with pytest.raises(ValueError) as one_row:
                _check_box(box)
            assert str(one_row.value) == message
            with pytest.raises(RowError) as sample_row:
                sample_set([(0, 0, 5, 5), box], [(0.5, 0.5)] * 2, [0, 0], (None,) * 2)
            assert str(sample_row.value) == f"detection 1: {message}"
            lines = [json.dumps({"image_id": "b", "bbox": [0, 0, 1, 1], "class_id": 1}), "",
                     json.dumps({"image_id": "b", "bbox": list(box), "class_id": 1})]
            with pytest.raises(ParseError) as gt_line:
                _ground_truth(lines, "a", 10, 10)
            assert str(gt_line.value) == f"line 3: {message}"
            spec = {"image_id": "s", "height": 10, "width": 10, "num_classes": 1,
                    "n_repetitions": 1, "instances": [{"box": list(box), "class_id": 1}]}
            with pytest.raises(ValueError) as spec_instance:
                scene_spec_from_json(json.dumps(spec))
            assert str(spec_instance.value) == message
            for build in (lambda: GroundTruthInstance("a", box, 1),
                          lambda: InstanceSpec(box, 1)):
                with pytest.raises(ValueError) as direct:
                    build()
                assert str(direct.value) == message

    @pytest.mark.parametrize("box", [(0, 0, 10), (0, 0, 10, 10, 99)], ids=["three", "five"])
    def test_box_of_other_length_rejected(self, box):
        # The file readers check the length first; a library caller's box
        # is checked here, so no row of the wrong length reaches box_ious.
        message = f"box needs 4 values, got {len(box)}: {box}"
        for build in (lambda: _check_box(box), lambda: _check_box(list(box)),
                      lambda: GroundTruthInstance("a", box, 1), lambda: InstanceSpec(box, 1)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message

    def test_valid_boxes_pass(self):
        for box in [(0, 0, 1, 1), (-5.5, 2, 3, 2.25), [0, 0, 1e300, 1e-300]]:
            _check_box(box)


class TestBoxIou:
    def test_identity(self):
        b = (3, 4, 10, 12)
        assert box_iou(b, b) == 1.0

    def test_disjoint(self):
        assert box_iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # intersection 5x10 = 50, union 100 + 100 - 50 = 150
        got = box_iou((0, 0, 10, 10), (5, 0, 15, 10))
        assert got == pytest.approx(50 / 150, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(boxes, boxes)
    def test_symmetry_and_bounds(self, a, b):
        ab = box_iou(a, b)
        assert ab == box_iou(b, a)
        assert 0.0 <= ab <= 1.0


class TestMaskIou:
    def test_identity_nonempty(self):
        m = rle_encode(np.eye(4, dtype=bool))
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((2, 5), dtype=bool)
        a[0] = True
        b = np.zeros((2, 5), dtype=bool)
        b[1] = True
        assert mask_iou(rle_encode(a), rle_encode(b)) == 0.0

    def test_half_overlap(self):
        # 4x4: left half (8 px) vs top half (8 px) -> 4 / 12
        left = np.zeros((4, 4), dtype=bool)
        left[:, :2] = True
        top = np.zeros((4, 4), dtype=bool)
        top[:2, :] = True
        assert mask_iou(rle_encode(left), rle_encode(top)) == pytest.approx(
            4 / 12, abs=1e-12
        )

    def test_both_empty_is_zero(self):
        e = np.array([4])
        assert mask_iou(e, e) == 0.0

    def test_other_pixel_count_rejected(self):
        # One 5x5 box on a 10x10 and on a 20x30 grid: the runs of one cannot
        # be read against the other's.
        small = rle_encode(rasterize_box((0, 0, 5, 5), 10, 10))
        large = rle_encode(rasterize_box((0, 0, 5, 5), 20, 30))
        runs = np.concatenate([large, small])
        offsets = np.array([0, large.size, runs.size])
        with pytest.raises(ValueError, match=r"^mask pixel counts differ: 100 vs 600$"):
            mask_ious(runs, offsets, large)
        with pytest.raises(ValueError, match=r"^mask pixel counts differ: 600 vs 100$"):
            mask_iou(large, small)
        # A row without a mask has no pixel count to compare.
        assert mask_ious(large, np.array([0, 0, large.size]), large).tolist() == [1.0]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**16 - 1))
    def test_matches_pixel_count_oracle(self, bits):
        grid_a = np.array([(bits >> i) & 1 for i in range(16)], dtype=bool).reshape(4, 4)
        grid_b = np.array([(bits >> (15 - i)) & 1 for i in range(16)], dtype=bool).reshape(4, 4)
        inter = sum(
            1 for r in range(4) for c in range(4) if grid_a[r, c] and grid_b[r, c]
        )
        union = sum(
            1 for r in range(4) for c in range(4) if grid_a[r, c] or grid_b[r, c]
        )
        expect = inter / union if union else 0.0
        assert mask_iou(rle_encode(grid_a), rle_encode(grid_b)) == pytest.approx(
            expect, abs=1e-12
        )


class TestMaskIouOnRuns:
    """mask_ious works on run bounds; a dense pixel count is the oracle."""

    @staticmethod
    def dense_iou(a, b):
        union = int(np.logical_or(a, b).sum())
        return int(np.logical_and(a, b).sum()) / union if union else 0.0

    def check(self, grid_a, grid_b):
        got = mask_iou(rle_encode(grid_a), rle_encode(grid_b))
        assert got == self.dense_iou(grid_a, grid_b)

    def test_random_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            h, w = rng.integers(1, 12, size=2)
            pa, pb = rng.uniform(0, 1, size=2)
            self.check(rng.random((h, w)) < pa, rng.random((h, w)) < pb)

    def test_leading_zero_length_run(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.random((6, 9)) < 0.5
            b = rng.random((6, 9)) < 0.5
            a[0, 0] = b[0, 0] = True
            assert rle_encode(a)[0] == 0
            self.check(a, b)

    def test_all_foreground(self):
        rng = np.random.default_rng(9)
        full = np.ones((5, 7), dtype=bool)
        self.check(full, full)
        self.check(full, rng.random((5, 7)) < 0.3)

    def test_one_empty(self):
        rng = np.random.default_rng(10)
        empty = np.zeros((5, 7), dtype=bool)
        self.check(empty, rng.random((5, 7)) < 0.3)
        self.check(np.ones((5, 7), dtype=bool), empty)

    def test_both_empty(self):
        empty = np.zeros((5, 7), dtype=bool)
        assert mask_iou(rle_encode(empty), rle_encode(empty)) == 0.0

    def test_foreground_intervals(self):
        starts, ends, _ = _foreground_bounds(*run_column([(0, 2, 3, 1, 4)]), 10)
        assert starts.tolist() == [0, 5]
        assert ends.tolist() == [2, 6]
        starts, ends, _ = _foreground_bounds(*run_column([(10,)]), 10)
        assert starts.tolist() == [] and ends.tolist() == []


def random_grid(rng, h, w):
    """A random mask whose foreground may touch the first or the last pixel."""
    grid = rng.random((h, w)) < rng.uniform(0.0, 1.0)
    kind = rng.integers(4)
    if kind == 1:
        grid.flat[0] = True
    elif kind == 2:
        grid.flat[-1] = True
    elif kind == 3:
        grid[:] = False
    return grid


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def one_mask_set(h, w, runs):
    """A one-detection SampleSet of an h x w image whose mask has ``runs``."""
    return SampleSet("img", h, w, 1, [(0, 0, 1, 1)], [(0.5, 0.5)], [0], [runs])


def sample_set_runs(h, w, runs):
    try:
        return one_mask_set(h, w, runs).mask_runs.tolist()
    except RowError as exc:
        return f"ValueError: {exc.message}"


def ground_truth_runs(h, w, runs):
    line = json.dumps({"image_id": "a", "bbox": [0, 0, 1, 1], "class_id": 1, "mask_runs": runs})
    try:
        return _ground_truth([line], "a", h, w)[0].mask.tolist()
    except ParseError as exc:
        return f"ValueError: {str(exc).removeprefix('line 1: ')}"


class TestRunsAgainstReference:
    """The sample set and the ground-truth reader check runs with array
    reductions; the tuple validator is the oracle."""

    def check(self, h, w, runs):
        want = outcome(lambda: list(reference_runs(h, w, runs)))
        assert sample_set_runs(h, w, runs) == want, (h, w, runs)
        if all(type(r) is int for r in runs):  # what a file's mask_runs can hold
            assert ground_truth_runs(h, w, list(runs)) == want, (h, w, runs)

    def test_random_runs(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            h, w = (int(v) for v in rng.integers(1, 6, size=2))
            runs = [int(v) for v in rng.integers(-1, 5, size=rng.integers(0, 9))]
            if rng.random() < 0.5 and runs:  # often make the sum right
                runs[-1] += h * w - sum(runs)
            self.check(h, w, runs)

    def test_encoded_grids(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            h, w = (int(v) for v in rng.integers(1, 12, size=2))
            runs = rle_encode(random_grid(rng, h, w)).tolist()
            self.check(h, w, runs)
            self.check(h, w, tuple(runs))
            self.check(h, w, np.array(runs))

    @pytest.mark.parametrize(
        "runs",
        [
            (), (0,), (6,), (0, 6), (0, 0, 6), (3, 0, 3), (-1, 7), (7, -1), (2, 3),
            (0, 2**64, 10), (2**64,), (-(2**64), 10), (2**63, 2**63, 6),
            (2**62, 2**62, 2**62, 2**62, 6), (2**63 - 1, 2**63 - 1, 8),
            (True, 5), (6.0,), (6.9,),
        ],
    )
    def test_edge_runs(self, runs):
        self.check(2, 3, runs)

    def test_int64_sum_does_not_wrap(self):
        # Four runs of 2^62 wrap an int64 sum to 0, then + 6 would be "right".
        runs = [2**62, 2**62, 2**62, 2**62, 6]
        want = f"ValueError: runs sum to {4 * 2**62 + 6}, expected 6"
        assert sample_set_runs(2, 3, runs) == ground_truth_runs(2, 3, runs) == want

    def test_two_dimensional_runs_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            one_mask_set(2, 3, [[1, 2, 3]])


class TestMaskIouAgainstReference:
    """mask_ious against one boundary sweep per pair, bit for bit."""

    def test_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            h, w = (int(v) for v in rng.integers(1, 12, size=2))
            a = rle_encode(random_grid(rng, h, w))
            b = rle_encode(random_grid(rng, h, w))
            assert mask_iou(a, b) == reference_mask_iou(a, b)

    def test_many_against_one(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            h, w = (int(v) for v in rng.integers(1, 15, size=2))
            ref = rle_encode(random_grid(rng, h, w))
            masks = [rle_encode(random_grid(rng, h, w)) for _ in range(rng.integers(1, 12))]
            got = mask_ious(*run_column(masks), ref)
            assert got.tolist() == [reference_mask_iou(m, ref) for m in masks]

    def test_large_masks(self):
        rng = np.random.default_rng(25)
        yy, xx = np.mgrid[0:120, 0:160]
        ref = rle_encode((yy - 60) ** 2 + (xx - 80) ** 2 <= 40**2)
        masks = []
        for _ in range(20):
            cy, cx = rng.integers(40, 80), rng.integers(50, 110)
            grid = (yy - cy) ** 2 + (xx - cx) ** 2 <= rng.integers(20, 50) ** 2
            grid ^= rng.random(grid.shape) < 0.02
            masks.append(rle_encode(grid))
        assert mask_ious(*run_column(masks), ref).tolist() == [
            reference_mask_iou(m, ref) for m in masks
        ]

    def test_single_and_no_masks(self):
        full = np.array([0, 6])
        assert mask_ious(*run_column([full]), full).tolist() == [1.0]
        assert mask_ious(*run_column([]), full).shape == (0,)


class TestRle:
    def test_all_background(self):
        assert rle_encode(np.zeros((2, 2), dtype=bool)).tolist() == [4]

    def test_all_foreground(self):
        assert rle_encode(np.ones((2, 2), dtype=bool)).tolist() == [0, 4]

    def test_checker(self):
        grid = np.array([[False, True], [True, False]])
        runs = rle_encode(grid)
        assert runs.tolist() == [1, 2, 1] and runs.dtype == np.int64

    def test_decode_rejects_bad_sum(self):
        assert sample_set_runs(2, 2, (3,)) == "ValueError: runs sum to 3, expected 4"

    def test_interior_zero_rejected(self):
        message = "ValueError: zero-length run allowed only as the leading run"
        assert sample_set_runs(2, 2, (2, 0, 2)) == message

    def test_leading_zero_allowed(self):
        assert rle_decode(one_mask_set(2, 2, (0, 4)).mask_runs, 2, 2).all()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip(self, data):
        h = data.draw(st.integers(1, 64))
        w = data.draw(st.integers(1, 64))
        bits = data.draw(st.binary(min_size=h * w, max_size=h * w))
        grid = (np.frombuffer(bits, dtype=np.uint8) > 127).reshape(h, w)
        assert np.array_equal(rle_decode(rle_encode(grid), h, w), grid)


class TestRasterizeAgainstBoxIou:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_integer_boxes_match(self, data):
        # boxes aligned to the integer grid rasterize exactly, so the two
        # IoU routes agree within the pixel-boundary tolerance
        def int_box(lo, hi):
            x1 = data.draw(st.integers(lo, hi - 2))
            y1 = data.draw(st.integers(lo, hi - 2))
            x2 = data.draw(st.integers(x1 + 1, hi))
            y2 = data.draw(st.integers(y1 + 1, hi))
            return (float(x1), float(y1), float(x2), float(y2))

        a = int_box(0, 24)
        b = int_box(0, 24)
        ma = rle_encode(rasterize_box(a, 24, 24))
        mb = rle_encode(rasterize_box(b, 24, 24))
        tol = 2.0 / min(2 * (a[2] - a[0] + a[3] - a[1]), 2 * (b[2] - b[0] + b[3] - b[1]))
        assert abs(box_iou(a, b) - mask_iou(ma, mb)) <= tol


class TestDomainTypes:
    def test_score_vector_checks_sum(self):
        # A detection's score vector is a SampleSet row, checked there.
        with pytest.raises(ValueError, match="scores must sum to 1"):
            sample_set(scores=((0.5, 0.6),))
        with pytest.raises(ValueError, match=r"scores must lie in \[0, 1\]"):
            sample_set(scores=((1.5, -0.5),))
        assert sample_set(scores=((0.25, 0.75),)).scores[0, 0] == 0.25


def sample_set(boxes=((0, 0, 5, 5),), scores=((0.5, 0.5),), repetition=(0,), masks=(None,),
               n_repetitions=2):
    return SampleSet("img", 10, 10, n_repetitions, boxes, scores, repetition, masks)


class TestSampleSet:
    """A directly built SampleSet checks every value, naming the detection."""

    @pytest.mark.parametrize(
        "box, scores, repetition, message",
        [
            ((0, 0, 5, 5), (0.5, 0.5), 2, r"repetition 2 out of range \[0, 2\)"),
            ((0, 0, 5, 5), (0.5, 0.5), -1, r"repetition -1 out of range \[0, 2\)"),
            ((0, 0, 5, 5), (0.5, 0.5), 2**64, r"repetition 18446744073709551616 out of range"),
            ((0, 0, np.nan, 5), (0.5, 0.5), 0, r"box coordinates must be finite"),
            ((0, 0, np.inf, 5), (0.5, 0.5), 0, r"box coordinates must be finite"),
            ((0, 0, 0, 5), (0.5, 0.5), 0, r"box must have strictly positive area, got \(0.0, 0.0, 0.0, 5.0\)"),
            ((6, 0, 2, 5), (0.5, 0.5), 0, r"box must have strictly positive area, got \(6.0, 0.0, 2.0, 5.0\)"),
            ((20, 0, 30, 5), (0.5, 0.5), 0, r"box must have strictly positive area, got \(10, 0.0, 10, 5.0\)"),
            ((0, 0, 5, 5), (1.5, -0.5), 0, r"scores must lie in \[0, 1\]"),
            ((0, 0, 5, 5), (np.nan, 0.5), 0, r"scores must lie in \[0, 1\]"),
            ((0, 0, 5, 5), (0.5, 0.6), 0, r"scores must sum to 1 within 1e-6, got 1.1"),
            ((0, 0, 5, 5), (0.5, 0.5, 10**400), 0, r"scores must lie in \[0, 1\], got \(0.5, 0.5, inf\)"),
        ],
    )
    def test_rejects_bad_row(self, box, scores, repetition, message):
        good = ((1, 1, 4, 4), (0.5, 0.5) + (0.0,) * (len(scores) - 2), 0)
        boxes, score_rows, repetitions = zip(good, (box, scores, repetition), good)
        with pytest.raises(RowError, match=f"^detection 1: {message}") as err:
            sample_set(list(boxes), list(score_rows), list(repetitions), (None,) * 3)
        assert err.value.row == 1

    def test_rejects_short_score_vector(self):
        with pytest.raises(RowError, match="^detection 0: score vector needs background"):
            sample_set(scores=((1.0,),))

    def test_rejects_runs_of_other_pixel_count(self):
        with pytest.raises(RowError, match=r"^detection 1: runs sum to 9, expected 100$"):
            sample_set([(0, 0, 5, 5)] * 2, [(0.5, 0.5)] * 2, [0, 0], ([0, 100], [9]))

    def test_clamps_boxes_into_the_image(self):
        s = sample_set(boxes=((-3, 2, 50, 5),))
        assert s.boxes.tolist() == [[0.0, 2.0, 10.0, 5.0]]

    def test_columns_are_read_only_copies(self):
        boxes = np.array([[0.0, 0.0, 5.0, 5.0]])
        s = sample_set(boxes=boxes)
        boxes[0, 0] = 1.0
        assert s.boxes[0, 0] == 0.0
        for column in (s.boxes, s.scores, s.repetition):
            assert not column.flags.writeable
        assert (s.boxes.dtype, s.scores.dtype, s.repetition.dtype) == (
            np.float64, np.float64, np.int64
        )

    def test_rows_sorted_stably_by_repetition(self):
        boxes = [(i, 0, i + 1, 1) for i in range(4)]
        s = sample_set(boxes, [(0.5, 0.5)] * 4, [1, 0, 1, 0], (None,) * 4)
        assert s.repetition.tolist() == [0, 0, 1, 1]
        assert s.boxes[:, 0].tolist() == [1, 3, 0, 2]
        assert s.take([3, 0]).boxes[:, 0].tolist() == [1, 2]  # re-sorted by repetition

    def test_empty_set_keeps_class_count(self):
        s = sample_set(np.empty((0, 4)), np.empty((0, 4)), [], ())
        assert len(s) == 0 and s.scores.shape == (0, 4)

    def test_rejects_more_pixels_than_the_cap(self):
        # The mask statistics take a few H x W float64 arrays.
        message = r"^image of 8193 x 8193 pixels exceeds the limit of 67108864 pixels$"
        with pytest.raises(ValueError, match=message):
            SampleSet("img", 8193, 8193, 1, [(0, 0, 5, 5)], [(0.5, 0.5)], [0], [None])
        assert len(SampleSet("img", 8192, 8192, 1, [(0, 0, 5, 5)], [(0.5, 0.5)], [0], [None])) == 1


def random_mask_set(rng):
    """A random SampleSet whose rows mix masks and no masks, and repeat repetitions."""
    n = int(rng.integers(0, 12))
    h, w = int(rng.integers(1, 5)), int(rng.integers(8, 20))
    rows = [None if rng.random() < 0.4 else rle_encode(random_grid(rng, h, w)).tolist()
            for _ in range(n)]
    boxes = np.reshape([(0.5 * i, 0, 0.5 * i + 1, 1) for i in range(n)], (n, 4))
    scores = np.tile([0.25, 0.75], (n, 1))
    return SampleSet("img", h, w, 3, boxes, scores, rng.integers(0, 3, size=n), rows)


class TestRunColumn:
    """A SampleSet's masks are one run column; take gathers rows without re-checking them."""

    def test_take_is_the_set_built_from_those_rows(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            s = random_mask_set(rng)
            if rng.random() < 0.5:  # distinct rows, unsorted
                idx = rng.permutation(len(s))[: rng.integers(0, len(s) + 1)]
            else:  # rows may repeat
                idx = rng.integers(0, max(len(s), 1), size=rng.integers(0, 2 * len(s) + 1))
            rows = mask_rows(s)
            want = SampleSet(s.image_id, s.height, s.width, s.n_repetitions, s.boxes[idx],
                             s.scores[idx], s.repetition[idx], [rows[i] for i in idx])
            got = s.take(idx)
            assert got == want
            assert all(not c.flags.writeable for c in (got.mask_runs, got.mask_offsets))
            assert got.mask_runs.dtype == got.mask_offsets.dtype == np.int64

    def test_rows_keep_their_masks(self):
        rows = [[0, 6], None, [2, 4], [6]]
        s = SampleSet("img", 2, 3, 2, [(0, 0, 1, 1)] * 4, [(0.5, 0.5)] * 4, [1, 0, 1, 0], rows)

        def listed(s):
            return [None if r is None else r.tolist() for r in mask_rows(s)]

        assert listed(s) == [None, [6], [0, 6], [2, 4]]
        assert s.mask_offsets.tolist() == [0, 0, 1, 3, 5]
        # Row 0 has repetition 0; rows 3 and 2 keep their order.
        assert listed(s.take([3, 0, 2])) == [None, [2, 4], [0, 6]]

    def test_foreground_bounds_match_each_mask(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = random_mask_set(rng)
            pixels = s.height * s.width
            starts, ends, first = _foreground_bounds(s.mask_runs, s.mask_offsets, pixels)
            masks = [m for m in mask_rows(s) if m is not None]
            intervals = [reference_foreground_intervals(m) for m in masks]
            assert starts.tolist() == [v for st, _ in intervals for v in st.tolist()]
            assert ends.tolist() == [v for _, en in intervals for v in en.tolist()]
            assert first.tolist() == np.cumsum([0] + [st.size for st, _ in intervals]).tolist()

    def test_foreground_bounds_exact_where_the_running_sum_wraps(self):
        # Four masks of 2^62 pixels: the running sum passes 2^63 at the second.
        pixels = 2**62
        runs = np.array([pixels - 5, 5] * 4, dtype=np.int64)
        starts, ends, _ = _foreground_bounds(runs, np.arange(0, 9, 2), pixels)
        assert starts.tolist() == [pixels - 5] * 4 and ends.tolist() == [pixels] * 4


class TestBoxIous:
    """box_ious is the scalar IoU formula of a pair of boxes, bit for bit."""

    def check(self, boxes, ref):
        got = box_ious(np.array(boxes, dtype=np.float64), ref)
        want = [reference_box_iou(b, ref) for b in boxes]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()

    def test_random_boxes(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            corners = rng.uniform(0, 100, size=(40, 2, 2))
            corners.sort(axis=1)
            boxes = corners.transpose(0, 2, 1).reshape(-1, 4)[:, [0, 2, 1, 3]]
            boxes = boxes[(boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])]
            self.check(boxes[1:].tolist(), tuple(boxes[0].tolist()))

    def test_edge_cases(self):
        ref = (10.0, 10.0, 20.0, 20.0)
        boxes = [
            (30.0, 30.0, 40.0, 40.0),  # disjoint
            (20.0, 10.0, 30.0, 20.0),  # touching on an edge
            (20.0, 20.0, 30.0, 30.0),  # touching at a corner
            (12.0, 13.0, 17.0, 19.5),  # nested inside
            (0.0, 0.0, 50.0, 50.0),    # nesting it
            ref,                       # identical
            (15.0, 0.1, 25.0, 10.3),   # partial overlap
        ]
        self.check(boxes, ref)
        assert box_ious(np.empty((0, 4)), ref).shape == (0,)


class TestLabelGroups:
    """A cluster is a label group: its members are ``s.take(group)``."""

    def test_single_label(self):
        groups = label_groups([0, 0, 0])
        assert [g.tolist() for g in groups] == [[0, 1, 2]]

    def test_identity_labels(self):
        assert [g.tolist() for g in label_groups([0, 1, 2])] == [[0], [1], [2]]

    def test_empty_labels(self):
        assert label_groups([]) == []
        assert label_groups(np.zeros(0, dtype=np.int64)) == []

    def test_partition_multiset(self):
        rng = np.random.default_rng(3)
        boxes = [(x, y, x + 5, y + 5) for x, y in rng.uniform(0, 900, (40, 2))]
        reps = list(rng.integers(0, 4, 40))
        s = simple_set(boxes, n_repetitions=4, reps=reps)
        labels = rng.integers(0, 6, 40)
        groups = label_groups(labels)
        assert sorted(np.concatenate(groups).tolist()) == list(range(40))
        assert all(g.dtype == np.int64 and (np.diff(g) > 0).all() for g in groups)
        assert [labels[g].tolist() for g in groups] == [
            [k] * np.count_nonzero(labels == k) for k in np.unique(labels)
        ]
        members = [s.take(g) for g in groups]
        assert sum(len(m) for m in members) == len(s)
        assert all(np.array_equal(m.boxes, s.boxes[g]) for m, g in zip(members, groups))

    def test_member_order_by_provenance(self):
        boxes = [(i, 0, i + 5, 5) for i in range(4)]
        s = simple_set(boxes, n_repetitions=2, reps=[1, 0, 1, 0])
        (group,) = label_groups([0, 0, 0, 0])
        assert group.tolist() == [0, 1, 2, 3]
        assert s.take(group).boxes[:, 0].tolist() == [1, 3, 0, 2]

    def test_split_flags_follow_clusters(self):
        # Groups come by ascending label, so flag i, indexed by label, is group i's.
        s = simple_set([(0, 0, 5, 5), (1, 1, 6, 6), (2, 2, 7, 7)])
        labels, refused = split_labels(s.boxes, [1, 0, 0], 1, 5, seed=0)
        assert [g.tolist() for g in label_groups(labels)] == [[1, 2], [0]]
        assert refused.tolist() == [False, False]
        assert [g.tolist() for g in label_groups([4, 1, 1])] == [[1, 2], [0]]
