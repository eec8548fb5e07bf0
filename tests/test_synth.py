import json

import numpy as np
import pytest

from _reference import mask_rows, reference_generate
from _scenes import separated_scene
from dropuq.calibration import fit_temperature
from dropuq.cli import main
from dropuq.clustering import cluster_pipeline
from dropuq.ingest import serialize_sample_set
from dropuq.model import _run_bounds, rle_decode, rle_encode
from dropuq.synth import (
    MAX_DETECTIONS,
    InstanceSpec,
    SceneSpec,
    _flip_runs,
    adjusted_rand_index,
    generate,
    generate_calibration_records,
    scene_spec_from_json,
    scene_spec_to_json,
)


class TestGenerate:
    def test_deterministic_bytes(self):
        spec = separated_scene(0, 3, sigma=2.0, shape="ellipse", mask_noise=0.2,
                               class_confusion=0.2, miss_rate=0.1)
        s1, l1, g1 = generate(spec)
        s2, l2, g2 = generate(spec)
        assert serialize_sample_set(s1) == serialize_sample_set(s2)
        assert l1 == l2
        assert g1 == g2

    def test_label_bookkeeping(self):
        spec = separated_scene(1, 4, sigma=2.0, miss_rate=0.2)
        s, labels, gts = generate(spec)
        assert len(labels) == len(s)
        assert set(labels) <= set(range(len(spec.instances)))
        assert len(gts) == len(spec.instances)

    def test_noiseless_repetitions_identical(self):
        spec = separated_scene(2, 2, sigma=0.0, shape="box")
        s, labels, _ = generate(spec)
        assert len(s) == 200
        per_instance = {}
        for box, scores, mask, lab in zip(s.boxes.tolist(), s.scores.tolist(), mask_rows(s), labels):
            per_instance.setdefault(lab, set()).add(
                (tuple(box), tuple(scores), tuple(mask.tolist()))
            )
        assert all(len(v) == 1 for v in per_instance.values())
        assert adjusted_rand_index(labels, cluster_pipeline(s, seed=2)[0]) == 1.0

    def test_full_miss_rate_omits_instance(self):
        box = (10, 10, 40, 40)
        spec = SceneSpec(
            "img", 100, 100, 1, 20,
            (
                InstanceSpec(box, 1, "none", miss_rate=1.0),
                InstanceSpec((60, 60, 90, 90), 1, "none", miss_rate=0.0),
            ),
            seed=0,
        )
        s, labels, gts = generate(spec)
        assert 0 not in labels
        assert len(s) == 20
        assert len(gts) == 2

    def test_empty_sample_set_keeps_class_count(self, tmp_path):
        spec = SceneSpec("img", 100, 100, 3, 5, (InstanceSpec((10, 10, 40, 40), 2, "none",
                                                               miss_rate=1.0),))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(scene_spec_to_json(spec), encoding="utf-8")
        assert main(["synth", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "img_samples.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["num_classes"] == 3
        gt = json.loads((tmp_path / "out" / "img_gt.jsonl").read_text(encoding="utf-8"))
        assert gt["class_id"] == 2

    def test_edge_noise_statistics(self):
        spec = separated_scene(3, 1, sigma=2.0, n_repetitions=1000, height=2000, width=2000)
        s, _, _ = generate(spec)
        coords = s.boxes
        for axis in range(4):
            std = coords[:, axis].std()
            assert abs(std - 2.0) / 2.0 < 0.1

    def test_scores_concentrate_on_true_class(self):
        spec = separated_scene(4, 1, class_confusion=0.2, n_repetitions=200)
        s, _, _ = generate(spec)
        true_class = spec.instances[0].true_class
        assert np.abs(s.scores[:, true_class] - 0.8).max() <= 1e-9
        assert np.abs(s.scores[:, 0] - 0.1).max() <= 1e-9

    def test_mask_noise_flips_contour_only(self):
        clean = separated_scene(5, 1, shape="ellipse", mask_noise=0.0)
        noisy = separated_scene(5, 1, shape="ellipse", mask_noise=0.5)
        sc, _, gc = generate(clean)
        sn, _, _ = generate(noisy)
        base = rle_decode(gc[0].mask, clean.height, clean.width)
        flipped = rle_decode(mask_rows(sn)[0], noisy.height, noisy.width) != base
        # all flipped pixels are near the contour: dilate(base) & ~erode(base)
        from dropuq.synth import _contour_band

        assert not (flipped & ~_contour_band(base)).any()

    def test_spec_json_round_trip(self):
        spec = separated_scene(6, 2, sigma=1.5, shape="box", mask_noise=0.1)
        assert scene_spec_from_json(scene_spec_to_json(spec)) == spec

    def test_spec_defaults_and_integer_numbers(self):
        text = (
            '{"image_id": "d", "height": 40, "width": 60, "num_classes": 2, '
            '"n_repetitions": 3, "instances": [{"box": [1, 2, 30, 20], "class_id": 2}]}'
        )
        expect = SceneSpec("d", 40, 60, 2, 3, (InstanceSpec((1.0, 2.0, 30.0, 20.0), 2),))
        assert scene_spec_from_json(text) == expect


    @pytest.mark.parametrize("n_instances", [1, 2, 3])
    def test_detection_limit(self, n_instances):
        # Checked on the spec, so neither side of the limit draws anything.
        instances = tuple(InstanceSpec((0, 0, 5, 5), 1) for _ in range(n_instances))
        at_limit = MAX_DETECTIONS // n_instances
        assert SceneSpec("img", 10, 10, 1, at_limit, instances).n_repetitions == at_limit
        with pytest.raises(ValueError, match=(
            f"{at_limit + 1} repetitions x {n_instances} instances exceed the limit of "
            f"{MAX_DETECTIONS} detections"
        )):
            SceneSpec("img", 10, 10, 1, at_limit + 1, instances)


def assert_same_scene(spec):
    """generate and the dense reference generator give the same scene."""
    got, want = generate(spec), reference_generate(spec)
    assert serialize_sample_set(got[0]) == serialize_sample_set(want[0])
    assert got[0] == want[0]
    assert got[1:] == want[1:]
    return got


class TestRunNativeNoise:
    """generate gives each noisy mask its runs by toggling the shape's run
    bounds at every flipped pixel; the reference flips the pixels of a copy
    of the shape's grid and encodes the whole grid."""

    @pytest.mark.parametrize("mask_noise", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("shape", ["ellipse", "box", "none"])
    def test_matches_dense_generator(self, shape, mask_noise):
        assert_same_scene(separated_scene(7, 3, sigma=2.0, shape=shape, mask_noise=mask_noise,
                                          class_confusion=0.1, n_repetitions=20))

    def test_misses(self):
        _, labels, _ = assert_same_scene(separated_scene(
            8, 4, shape="ellipse", mask_noise=0.1, miss_rate=0.3, n_repetitions=30
        ))
        assert 0 < len(labels) < 120

    @pytest.mark.parametrize(
        "height, width, boxes",
        [
            (1, 1, [(0, 0, 1, 1), (0, 0, 0.4, 0.4)]),
            (1, 10, [(0, 0, 1, 1), (1, 0, 3, 1), (7, 0, 9, 1), (8, 0, 10, 1)]),
            (10, 1, [(0, 0, 1, 1), (0, 1, 1, 3), (0, 7, 1, 9), (0, 8, 1, 10)]),
        ],
    )
    @pytest.mark.parametrize("shape", ["box", "ellipse"])
    def test_edge_grids(self, height, width, boxes, shape):
        spec = SceneSpec("edge", height, width, 1, 20,
                         tuple(InstanceSpec(box, 1, shape, mask_noise=0.5) for box in boxes),
                         seed=3)
        s, labels, gts = assert_same_scene(spec)
        if height * width > 1:  # flips reach pixel 0 and the last pixel
            flipped = np.array([
                (rle_decode(runs, height, width) != rle_decode(gts[i].mask, height, width)).ravel()
                for runs, i in zip(mask_rows(s), labels)
            ])
            assert flipped[:, 0].any() and flipped[:, -1].any()

    def test_shape_without_pixels(self):
        # The box covers no pixel centre: every mask is one background run.
        spec = SceneSpec("empty", 10, 10, 1, 5,
                         (InstanceSpec((2.6, 2.6, 3.4, 3.4), 1, "box", mask_noise=0.5),))
        s, _, gts = assert_same_scene(spec)
        assert [m.tolist() for m in mask_rows(s)] == [[100]] * 5
        assert gts[0].mask.tolist() == [100]

    def test_toggles_match_rle_encode(self):
        rng = np.random.default_rng(0)
        adjacent = 0
        for trial in range(300):
            grid = rng.random(tuple(rng.integers(1, 9, 2))) < rng.random()
            pick = rng.random(grid.size) < rng.random()
            if trial % 3 == 0 and grid.size > 1:
                p = rng.integers(grid.size - 1)
                pick[p:p + 2] = True
            adjacent += bool((pick[1:] & pick[:-1]).any())
            flips = np.flatnonzero(pick)
            flipped = grid.copy()
            flipped.reshape(-1)[flips] ^= True
            runs = _flip_runs(_run_bounds(grid), flips, grid.size)
            assert runs.tolist() == rle_encode(flipped).tolist(), (grid, flips)
        assert adjacent >= 100


class TestCalibrationRecords:
    def test_unit_temperature_recovered(self):
        records = generate_calibration_records(10000, 1.0, 5, seed=0)
        assert 0.9 <= fit_temperature(records) <= 1.1

    def test_temperature_two_recovered(self):
        records = generate_calibration_records(10000, 2.0, 5, seed=1)
        assert abs(fit_temperature(records) - 2.0) / 2.0 < 0.02

    def test_scaling_property(self):
        rng = np.random.default_rng(2)
        base = generate_calibration_records(4000, 1.0, 4, seed=3)
        t0 = fit_temperature(base)
        for _ in range(3):
            c = float(rng.uniform(0.5, 3.0))
            scaled = generate_calibration_records(4000, c, 4, seed=3)
            assert fit_temperature(scaled) == pytest.approx(c * t0, rel=0.05)

    def test_deterministic(self):
        a = generate_calibration_records(50, 1.5, 3, seed=9)
        b = generate_calibration_records(50, 1.5, 3, seed=9)
        assert a == b


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        assert adjusted_rand_index([0, 0, 1, 1, 2], [5, 5, 7, 7, 9]) == 1.0

    def test_single_cluster_vs_split_is_zero(self):
        assert adjusted_rand_index([0] * 10, list(range(10))) == 0.0

    def test_near_zero_for_random(self):
        rng = np.random.default_rng(4)
        vals = []
        for _ in range(50):
            a = rng.integers(0, 4, 200)
            b = rng.integers(0, 4, 200)
            vals.append(adjusted_rand_index(a, b))
        assert abs(float(np.mean(vals))) < 0.05

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0, 1], [0, 1, 2])
