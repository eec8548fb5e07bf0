import io
import math
import tracemalloc

import numpy as np
import pytest

from _reference import mask_rows, reference_iou_to_mean, reference_kde_density, reference_mask_stats
from _scenes import clusters_of, separated_scene
from dropuq import report
from dropuq.evaluation import cluster_to_detection
from dropuq.model import SampleSet, rle_decode, rle_encode
from dropuq.report import (
    DegenerateSamples,
    box_stats,
    build_report,
    class_stats,
    iou_to_mean,
    kde,
    mask_stats,
    report_to_json,
    write_pgm,
)
from dropuq.synth import generate


def make_cluster(boxes, scores=None, masks=None, height=20, width=20):
    n = len(boxes)
    scores = scores or [(0.1, 0.9)] * n
    masks = masks or [None] * n
    return SampleSet("img", height, width, n, np.reshape(boxes, (-1, 4)), scores, range(n), masks)


def grid_mask(rows, height=20, width=20):
    g = np.zeros((height, width), dtype=bool)
    for r, c in rows:
        g[r, c] = True
    return rle_encode(g)


class TestBoxStats:
    def test_identical_members(self):
        c = make_cluster([(1, 2, 5, 6)] * 4)
        s = box_stats(c)
        assert s.mean_box == (1, 2, 5, 6)
        assert s.edge_std == (0.0, 0.0, 0.0, 0.0)

    def test_two_member_hand_case(self):
        c = make_cluster([(0, 0, 10, 10), (2, 0, 12, 10)])
        s = box_stats(c)
        assert s.mean_box == (1, 0, 11, 10)
        # population std of {0, 2} is 1
        assert s.edge_std == (1.0, 0.0, 1.0, 0.0)
        assert s.centers == ((5.0, 5.0), (7.0, 5.0))

    def test_mean_inside_envelope(self):
        rng = np.random.default_rng(0)
        boxes = [
            (x, y, x + w, y + h)
            for x, y, w, h in zip(
                rng.uniform(0, 5, 30),
                rng.uniform(0, 5, 30),
                rng.uniform(4, 10, 30),
                rng.uniform(4, 10, 30),
            )
        ]
        s = box_stats(make_cluster(boxes))
        arr = np.array(boxes)
        assert (s.mean_box >= arr.min(axis=0) - 1e-12).all()
        assert (s.mean_box <= arr.max(axis=0) + 1e-12).all()


class TestClassStats:
    def test_identical_members(self):
        c = make_cluster([(0, 0, 5, 5)] * 3, scores=[(0.2, 0.3, 0.5)] * 3)
        s = class_stats(c)
        assert s.std_scores == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        assert s.top_classes == (2, 1, 0)

    def test_two_member_hand_case(self):
        c = make_cluster(
            [(0, 0, 5, 5)] * 2, scores=[(0.1, 0.4, 0.5), (0.1, 0.6, 0.3)]
        )
        s = class_stats(c)
        assert s.mean_scores[1] == pytest.approx(0.5, abs=1e-12)
        # population std of {0.4, 0.6} is 0.1
        assert s.std_scores[1] == pytest.approx(0.1, abs=1e-12)


class TestMaskStats:
    def test_identical_masks(self):
        m = grid_mask([(0, 0), (0, 1), (1, 0)])
        c = make_cluster([(0, 0, 5, 5)] * 3, masks=[m] * 3)
        s = mask_stats(c)
        assert np.isin(s.mean_mask, (0.0, 1.0)).all()
        assert (s.std_mask == 0.0).all()
        assert np.array_equal(s.consensus_runs, m)
        assert not s.zero_mask

    def test_half_agreement(self):
        a = grid_mask([(0, 0)])
        b = grid_mask([(1, 1)])
        c = make_cluster([(0, 0, 5, 5)] * 2, masks=[a, b])
        s = mask_stats(c)
        assert s.mean_mask[0, 0] == 0.5
        assert s.std_mask[0, 0] == 0.5
        # 0.5 >= threshold 0.5: both disputed pixels make the consensus
        assert rle_decode(s.consensus_runs, 20, 20)[0, 0]
        assert rle_decode(s.consensus_runs, 20, 20)[1, 1]

    def test_no_masks_is_zero_mask(self):
        c = make_cluster([(0, 0, 5, 5)] * 3)
        s = mask_stats(c)
        assert s.zero_mask
        assert s.coverage_count == 0
        assert s.consensus_runs.tolist() == [400]

    def test_bernoulli_identity(self):
        rng = np.random.default_rng(1)
        masks = [rle_encode(rng.random((20, 20)) < 0.4) for _ in range(7)]
        c = make_cluster([(0, 0, 5, 5)] * 7, masks=masks)
        s = mask_stats(c)
        expect = np.sqrt(s.mean_mask * (1.0 - s.mean_mask))
        assert np.abs(s.std_mask - expect).max() < 1e-12

    def test_consensus_is_binarized_mean(self):
        rng = np.random.default_rng(2)
        masks = [rle_encode(rng.random((20, 20)) < 0.5) for _ in range(5)]
        c = make_cluster([(0, 0, 5, 5)] * 5, masks=masks)
        s = mask_stats(c, mask_threshold=0.5)
        assert np.array_equal(rle_decode(s.consensus_runs, 20, 20), s.mean_mask >= 0.5)

    def test_dim_mismatch_error(self):
        # A member's mask is checked against the image's dims when its set is built.
        with pytest.raises(ValueError, match="runs sum to 25, expected 400"):
            mask_stats(make_cluster([(0, 0, 5, 5)], masks=[[25]], height=20, width=20))

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, math.nan])
    def test_threshold_out_of_range_error(self, threshold):
        c = make_cluster([(0, 0, 5, 5)], masks=[grid_mask([(0, 0)])])
        with pytest.raises(ValueError, match="mask threshold must be in"):
            mask_stats(c, threshold)


def dense_mask_stats(c, mask_threshold=0.5):
    """Reference: stack every decoded member mask and reduce over the stack."""
    stack = np.stack(
        [rle_decode(m, c.height, c.width)
         for m in mask_rows(c) if m is not None]
    ).astype(np.float64)
    mean = stack.mean(axis=0)
    return mean, stack.std(axis=0), rle_encode(mean >= mask_threshold)


def random_masks(rng, n, height, width):
    masks = []
    for _ in range(n):
        grid = rng.random((height, width)) < rng.uniform(0.0, 1.0)
        masks.append(rle_encode(grid))
    return masks


class TestMaskStatsOnCounts:
    """mask_stats counts run bounds; a dense (N, H, W) stack is the oracle."""

    def test_matches_dense_stack(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(1, 30))
            h, w = (int(v) for v in rng.integers(1, 25, size=2))
            masks = random_masks(rng, n, h, w)
            if trial % 4 == 0:
                masks[0] = np.array([0, h * w])
            if trial % 4 == 1:
                masks[-1] = np.array([h * w])
            c = make_cluster([(0, 0, 1, 1)] * n, masks=masks, height=h, width=w)
            for threshold in (0.5, 0.3, 1.0):
                s = mask_stats(c, mask_threshold=threshold)
                mean, std, consensus = dense_mask_stats(c, threshold)
                assert np.array_equal(s.mean_mask, mean)
                assert np.abs(s.std_mask - std).max() <= 1e-12
                assert np.array_equal(s.consensus_runs, consensus)
                assert s.zero_mask == (consensus[1::2].sum() == 0)
                assert s.coverage_count == n

    def test_members_without_masks_are_skipped(self):
        rng = np.random.default_rng(12)
        masks = random_masks(rng, 6, 9, 11)
        masks[1] = masks[4] = None
        c = make_cluster([(0, 0, 1, 1)] * 6, masks=masks, height=9, width=11)
        s = mask_stats(c)
        mean, std, consensus = dense_mask_stats(c)
        assert s.coverage_count == 4
        assert np.array_equal(s.mean_mask, mean)
        assert np.abs(s.std_mask - std).max() <= 1e-12
        assert np.array_equal(s.consensus_runs, consensus)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(13)
        masks = random_masks(rng, 25, 16, 21)
        c = make_cluster([(0, 0, 1, 1)] * 25, masks=masks, height=16, width=21)
        first = mask_stats(c)
        for _ in range(5):
            order = rng.permutation(25)
            shuffled = make_cluster(
                [(0, 0, 1, 1)] * 25, masks=[masks[i] for i in order], height=16, width=21
            )
            s = mask_stats(shuffled)
            assert np.array_equal(s.mean_mask, first.mean_mask)
            assert np.array_equal(s.std_mask, first.std_mask)
            assert np.array_equal(s.consensus_runs, first.consensus_runs)

    def test_box_only_cluster(self):
        c = make_cluster([(0, 0, 5, 5)] * 4, height=7, width=9)
        s = mask_stats(c)
        assert s.mean_mask.shape == s.std_mask.shape == (7, 9)
        assert not s.mean_mask.any() and not s.std_mask.any()
        assert s.consensus_runs.tolist() == [63]
        assert s.zero_mask

    def test_memory_bounded_in_member_count(self):
        # 400 members of 480x640: a dense float64 stack alone would be ~983 MB.
        h, w, n = 480, 640, 400
        yy, xx = np.mgrid[0:h, 0:w]
        masks = []
        for k in range(n):
            cy, cx = 240 + (k % 7) - 3, 320 + (k % 11) - 5
            masks.append(rle_encode((yy - cy) ** 2 / 90.0**2 + (xx - cx) ** 2 / 120.0**2 <= 1.0))
        del yy, xx
        c = make_cluster([(200, 150, 440, 330)] * n, masks=masks, height=h, width=w)
        tracemalloc.start()
        try:
            s = mask_stats(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.coverage_count == n and not s.zero_mask
        assert peak < 40 * 2**20

    def test_memory_bounded_at_1080p(self):
        # 300 members of 1080x1920: a dense float64 stack would be ~4.6 GiB.
        # Counts, mean, std and consensus take a few H x W arrays (57 MB
        # measured, 51 MB with one member), whatever the member count.
        h, w, n = 1080, 1920, 300
        yy, xx = np.mgrid[0:h, 0:w]
        shapes = [
            rle_encode((yy - 540 - dy) ** 2 / 300.0**2 + (xx - 960 - dx) ** 2 / 500.0**2 <= 1.0)
            for dy, dx in [(k % 3 - 1, k % 5 - 2) for k in range(15)]
        ]
        del yy, xx
        masks = [shapes[k % len(shapes)] for k in range(n)]
        c = make_cluster([(460, 240, 1460, 840)] * n, masks=masks, height=h, width=w)
        tracemalloc.start()
        try:
            s = mask_stats(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.coverage_count == n and not s.zero_mask
        assert peak < 6 * h * w * 8

    def test_box_only_cluster_allocates_no_heatmaps(self):
        # Two dense 980x980 float64 zero heatmaps would take 14.7 MB.
        h = w = 980
        c = make_cluster([(100, 100, 160, 150)] * 30, height=h, width=w)
        tracemalloc.start()
        try:
            s = mask_stats(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.zero_mask and s.coverage_count == 0
        assert s.mean_mask.shape == s.std_mask.shape == (h, w)
        assert not s.mean_mask.any() and not s.std_mask.any()
        assert peak < 2**20


class TestIouToMean:
    def test_identical_members(self):
        c = make_cluster([(2, 2, 8, 8)] * 5)
        s = box_stats(c)
        m = mask_stats(c)
        box_samples, _ = iou_to_mean(c, s, m)
        assert box_samples == (1.0,) * 5

    def test_two_box_hand_case(self):
        # members (0,0,10,10), (2,0,12,10); mean (1,0,11,10)
        # member vs mean: intersection 9x10, union 110 -> 9/11
        c = make_cluster([(0, 0, 10, 10), (2, 0, 12, 10)])
        s = box_stats(c)
        m = mask_stats(c)
        box_samples, mask_samples = iou_to_mean(c, s, m)
        assert box_samples == pytest.approx((9 / 11, 9 / 11), abs=1e-12)
        assert mask_samples == ()

    def test_zero_mask_cluster_has_no_mask_samples(self):
        c = make_cluster([(0, 0, 5, 5)] * 3)
        box_samples, mask_samples = iou_to_mean(c, box_stats(c), mask_stats(c))
        assert len(box_samples) == 3
        assert mask_samples == ()

    def test_samples_in_unit_interval(self):
        s, _, _ = generate(separated_scene(0, 2, sigma=3.0, shape="ellipse", mask_noise=0.1, height=200, width=400))
        clusters = clusters_of(s, 0)
        for c in clusters:
            bs = box_stats(c)
            ms = mask_stats(c)
            box_samples, mask_samples = iou_to_mean(c, bs, ms)
            assert len(box_samples) == len(c)
            assert all(0.0 <= v <= 1.0 for v in box_samples)
            assert all(0.0 <= v <= 1.0 for v in mask_samples)
            assert len(mask_samples) == ms.coverage_count


class TestKde:
    def test_standard_normal_density_at_zero(self):
        rng = np.random.default_rng(3)
        curve = kde(rng.normal(0, 1, 10000))
        at_zero = float(np.interp(0.0, curve.grid, curve.density))
        assert abs(at_zero - 1.0 / math.sqrt(2 * math.pi)) / (
            1.0 / math.sqrt(2 * math.pi)
        ) < 0.05

    def test_symmetric_samples_symmetric_density(self):
        samples = [-0.3, 0.3] * 50
        curve = kde(samples)
        d = np.asarray(curve.density)
        assert np.abs(d - d[::-1]).max() < 1e-9

    def test_integral_close_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            curve = kde(rng.uniform(0, 1, 500))
            integral = float(np.trapezoid(curve.density, curve.grid))
            assert abs(integral - 1.0) < 1e-2

    def test_memory_linear_in_sample_count(self):
        # One (256, n) matrix of distances took 6 KB per sample.
        x = np.random.default_rng(6).normal(0.0, 1.0, 20_000)
        tracemalloc.start()
        try:
            curve = kde(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * x.size, peak / x.size
        want = reference_kde_density(x, np.array(curve.grid), curve.bandwidth)
        assert np.array(curve.density).tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_values", [1, 300, 2**16])
    def test_blocks_give_the_matrix_density(self, monkeypatch, block_values):
        monkeypatch.setattr(report, "_KDE_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(7)
        for n in (2, 3, 8, 9, 255, 256, 257, 1000, 4097):
            x = rng.normal(0.0, 1.0, n)
            curve = kde(x)
            want = reference_kde_density(x, np.array(curve.grid), curve.bandwidth)
            assert np.array(curve.density).tobytes() == want.tobytes(), n

    def test_density_non_negative(self):
        curve = kde(np.random.default_rng(5).normal(0, 2, 200))
        assert min(curve.density) >= 0.0

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateSamples):
            kde([1.0])
        with pytest.raises(DegenerateSamples):
            kde([0.5, 0.5, 0.5])

    def test_scott_bandwidth(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 3, 1000)
        curve = kde(x)
        assert curve.bandwidth == pytest.approx(float(np.std(x)) * 1000 ** (-0.2))


class TestBuildReport:
    def test_singleton_cluster(self):
        m = grid_mask([(3, 3), (3, 4)])
        c = make_cluster([(1, 1, 8, 8)], masks=[m])
        r = build_report(c)
        assert r.box_stats.edge_std == (0.0, 0.0, 0.0, 0.0)
        assert r.box_kde is None
        assert r.mask_kde is None
        assert r.box_iou_samples == (1.0,)

    def test_empty_members_rejected(self):
        s, _, _ = generate(separated_scene(0, 1, sigma=2.0, shape="ellipse", height=200, width=300))
        for stat in (box_stats, class_stats, build_report, cluster_to_detection):
            with pytest.raises(ValueError, match="a cluster needs at least one member"):
                stat(s.take([]))

    def test_deterministic_serialization(self):
        s, _, _ = generate(separated_scene(1, 2, sigma=2.0, shape="ellipse", mask_noise=0.1, height=200, width=400))
        clusters = clusters_of(s, 1)
        a = [report_to_json(build_report(c), i, False) for i, c in enumerate(clusters)]
        b = [report_to_json(build_report(c), i, False) for i, c in enumerate(clusters)]
        assert a == b

    def test_synth_cluster_statistics_match_generator(self):
        sigma = 2.0
        spec = separated_scene(2, 1, sigma=sigma, n_repetitions=400, height=400, width=400)
        s, _, _ = generate(spec)
        clusters = clusters_of(s, 2)
        assert len(clusters) == 1
        r = build_report(clusters[0])
        true_box = spec.instances[0].true_box
        n = len(clusters[0])
        for got, want in zip(r.box_stats.mean_box, true_box):
            assert abs(got - want) <= 3.0 * sigma / math.sqrt(n) + 1e-9
        for std in r.box_stats.edge_std:
            assert abs(std - sigma) / sigma < 0.2


class TestPgm:
    def test_pgm_bytes(self, tmp_path):
        arr = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "x.pgm"
        write_pgm(arr, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[-4:] == bytes([0, 128, 255, 64])

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        # the pixel write fails after the header is out: nothing may appear
        # under the final name
        class FailingFile(io.FileIO):
            def write(self, data):
                if self.tell():
                    raise OSError("disk full")
                return super().write(data)

        monkeypatch.setattr(report, "open", FailingFile, raising=False)
        path = tmp_path / "x.pgm"
        with pytest.raises(OSError):
            write_pgm(np.full((4, 4), 0.5), path)
        assert not path.exists()

    def test_pgm_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(np.array([[1.5]]), tmp_path / "y.pgm")

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf, -0.01])
    def test_pgm_rejects_nan_and_out_of_range(self, tmp_path, bad):
        path = tmp_path / "z.pgm"
        with pytest.raises(ValueError, match=r"values must lie in \[0, 1\]"):
            write_pgm(np.array([[0.5, bad], [1.0, 0.0]]), path)
        assert not path.exists()


def edge_masks(rng, n, h, w):
    """Random masks; some touch pixel 0 or the last pixel, some are empty."""
    masks = []
    for _ in range(n):
        grid = rng.random((h, w)) < rng.uniform(0.0, 1.0)
        kind = rng.integers(5)
        if kind == 1:
            grid.flat[0] = True
        elif kind == 2:
            grid.flat[-1] = True
        elif kind == 3:
            grid[:] = False
        elif kind == 4:  # a small blob, so the count window is narrow
            grid[:] = False
            r, c = rng.integers(h), rng.integers(w)
            grid[r : r + 2, c : c + 3] = True
        masks.append(rle_encode(grid))
    return masks


class TestMaskLayerAgainstReference:
    """Windowed mask_stats and one-pass iou_to_mean equal the full-image,
    pairwise references bit for bit."""

    def check(self, c, threshold):
        got = mask_stats(c, threshold)
        want = reference_mask_stats(c, threshold)
        assert got.mean_mask.shape == got.std_mask.shape == (c.height, c.width)
        assert got.mean_mask.tobytes() == want.mean_mask.tobytes()
        assert got.std_mask.tobytes() == want.std_mask.tobytes()
        assert got.consensus_runs.tolist() == want.consensus_runs.tolist()
        assert got.consensus_runs.dtype == np.int64
        assert (got.zero_mask, got.coverage_count) == (want.zero_mask, want.coverage_count)
        bstats = box_stats(c)
        assert iou_to_mean(c, bstats, got) == reference_iou_to_mean(c, bstats, want)

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 1.0])
    def test_random_clusters(self, threshold):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            h, w = (int(v) for v in rng.integers(1, 16, size=2))
            masks = edge_masks(rng, n, h, w)
            if rng.random() < 0.2:
                masks[int(rng.integers(n))] = None
            c = make_cluster([(0, 0, 1, 1)] * n, masks=masks, height=h, width=w)
            self.check(c, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    def test_single_member(self, threshold):
        rng = np.random.default_rng(32)
        for _ in range(30):
            h, w = (int(v) for v in rng.integers(1, 10, size=2))
            c = make_cluster([(0, 0, 1, 1)], masks=edge_masks(rng, 1, h, w), height=h, width=w)
            self.check(c, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    def test_all_masks_empty(self, threshold):
        c = make_cluster([(0, 0, 1, 1)] * 3, masks=[np.array([20])] * 3,
                         height=4, width=5)
        self.check(c, threshold)
        assert mask_stats(c, threshold).zero_mask == (threshold > 0.0)

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    def test_masks_at_both_ends(self, threshold):
        first = np.zeros((6, 7), dtype=bool)
        first.flat[:3] = True
        last = np.zeros((6, 7), dtype=bool)
        last.flat[-4:] = True
        masks = [rle_encode(first), rle_encode(last), rle_encode(first | last)]
        c = make_cluster([(0, 0, 1, 1)] * 3, masks=masks, height=6, width=7)
        self.check(c, threshold)

    def test_scene_clusters(self):
        spec = separated_scene(3, 2, sigma=2.0, shape="ellipse", mask_noise=0.1,
                               n_repetitions=30, height=200, width=280)
        s, _, _ = generate(spec)
        for c in clusters_of(s, 3):
            for threshold in (0.0, 0.5, 1.0):
                self.check(c, threshold)

