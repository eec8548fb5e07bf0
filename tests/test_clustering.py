import hashlib
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest

from _reference import mask_rows
from _scenes import overlapping_scene, separated_scene, simple_set
from dropuq import bgm, clustering, ward
from dropuq.bgm import fit_bgm
from dropuq.clustering import (
    cluster_pipeline,
    default_split_threshold,
    estimate_component_count,
    overlap_components,
    split_labels,
)
from dropuq.model import SampleSet
from dropuq.synth import adjusted_rand_index, generate


class TestComponentCount:
    def test_paper_heuristic(self):
        assert estimate_component_count(300, 100) == 3

    def test_single_instance(self):
        assert estimate_component_count(100, 100) == 1

    def test_half_up_boundaries(self):
        assert estimate_component_count(149, 100) == 1
        assert estimate_component_count(150, 100) == 2
        assert estimate_component_count(151, 100) == 2

    def test_minimum_one(self):
        assert estimate_component_count(10, 100) == 1

    def test_zero_detections_error(self):
        with pytest.raises(ValueError, match="^nothing to cluster: 0 detections$"):
            estimate_component_count(0, 100)

    def test_bad_repetitions(self):
        with pytest.raises(ValueError):
            estimate_component_count(5, 0)


class TestSurface:
    def test_pipeline_parameters_pinned(self):
        params = inspect.signature(cluster_pipeline).parameters
        assert [(p.name, p.default) for p in params.values()] == [
            ("s", inspect.Parameter.empty), ("algorithm", "bgm"),
            ("split_threshold", None), ("seed", 0),
        ]

    @pytest.mark.parametrize("kwargs, message", [
        ({"algorithm": "kmeans"}, "algorithm must be 'bgm' or 'agg', got 'kmeans'"),
        ({"split_threshold": 0}, "split_threshold must be >= 1, got 0"),
    ])
    def test_bad_parameter_rejected(self, kwargs, message):
        s = simple_set([(0, 0, 5, 5)])
        with pytest.raises(ValueError, match=message):
            cluster_pipeline(s, **kwargs)

    def test_fits_import_only_from_their_modules(self):
        assert not hasattr(clustering, "__getattr__")
        for name in ("MixtureState", "fit_bgm", "fit_agglomerative"):
            assert not hasattr(clustering, name), name


class TestDefaultSplitThreshold:
    @pytest.mark.parametrize("n, want", [(100, 150), (30, 45), (3, 5), (1, 2), (151, 227)])
    def test_one_and_a_half_repetitions_half_up(self, n, want):
        assert default_split_threshold(n) == want

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            default_split_threshold(0)

    def test_merged_pair_splits_at_30_repetitions(self):
        spec = separated_scene(1, 2, sigma=2.0, n_repetitions=30)
        s, labels, _ = generate(spec)
        assert len(s) == 60
        got, refused = split_labels(s.boxes, [0] * 60, 30, default_split_threshold(30), seed=1)
        assert refused.tolist() == [False, False]
        assert adjusted_rand_index(labels, got) == 1.0


def dense_components(points):
    """Reference: flood fill over the full pairwise overlap matrix."""
    x1, y1, x2, y2 = points.T
    adj = (np.minimum(x2[:, None], x2) > np.maximum(x1[:, None], x1)) & (
        np.minimum(y2[:, None], y2) > np.maximum(y1[:, None], y1)
    )
    labels = np.full(len(points), -1)
    count = 0
    for start in range(len(points)):
        if labels[start] >= 0:
            continue
        labels[start] = count
        stack = [start]
        while stack:
            for j in np.flatnonzero(adj[stack.pop()] & (labels < 0)):
                labels[j] = count
                stack.append(j)
        count += 1
    return labels


def partition_sets(labels):
    return sorted(tuple(np.flatnonzero(labels == k)) for k in np.unique(labels))


class TestOverlapComponents:
    def test_touching_boxes_stay_apart(self):
        boxes = np.array([(0, 0, 10, 10), (10, 0, 20, 10), (0, 10, 10, 20), (10, 10, 20, 20)])
        assert overlap_components(boxes.astype(float)).tolist() == [0, 1, 2, 3]

    def test_chain_is_one_component(self):
        # A-B and B-C overlap, A and C do not; B comes last in the input.
        boxes = np.array([(0, 0, 10, 10), (16, 5, 26, 15), (8, 2, 18, 12)], dtype=float)
        assert overlap_components(boxes).tolist() == [0, 0, 0]

    def test_numbered_by_first_detection(self):
        boxes = np.array(
            [(500, 0, 510, 10), (0, 0, 10, 10), (900, 0, 910, 10), (5, 5, 15, 15), (505, 5, 515, 15)],
            dtype=float,
        )
        assert overlap_components(boxes).tolist() == [0, 1, 2, 1, 0]

    @pytest.mark.parametrize("block_pairs", [None, 256])
    def test_matches_dense_reference(self, monkeypatch, block_pairs):
        # A small block budget splits every input into many row blocks.
        if block_pairs is not None:
            monkeypatch.setattr(clustering, "_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            corner = rng.integers(0, 60, (n, 2)).astype(float)
            size = rng.integers(1, 8, (n, 2)).astype(float)
            boxes = np.hstack([corner, corner + size])
            assert np.array_equal(overlap_components(boxes), dense_components(boxes))
        # Image-sized sets run the default budget with many blocks too; near
        # the coverage of these boxes, components chain across blocks.
        for _ in range(3):
            n = int(rng.integers(1000, 2001))
            corner = rng.uniform(0, 1000, (n, 2))
            boxes = np.hstack([corner, corner + rng.uniform(1, 40, (n, 2))])
            assert np.array_equal(overlap_components(boxes), dense_components(boxes))

    def test_permutation_permutes_components_only(self):
        rng = np.random.default_rng(1)
        corner = rng.uniform(0, 200, (400, 2))
        boxes = np.hstack([corner, corner + rng.uniform(1, 12, (400, 2))])
        base = overlap_components(boxes)
        perm = rng.permutation(400)
        moved = overlap_components(boxes[perm])
        assert partition_sets(moved) == partition_sets(base[perm])
        _, first = np.unique(moved, return_index=True)
        assert np.all(np.diff(first) > 0)  # still numbered by first detection

    def test_memory_linear_in_boxes(self):
        # 6400 boxes in one component: an n x n float64 matrix takes 312 MB.
        rng = np.random.default_rng(2)
        corner = rng.normal(300.0, 3.0, (6400, 2))
        boxes = np.hstack([corner, corner + 50.0])
        tracemalloc.start()
        try:
            labels = overlap_components(boxes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.max() == 0
        assert peak < 64 * 2**20


class TestSplitOversized:
    def test_small_clusters_unchanged(self):
        s, labels, _ = generate(separated_scene(0, 2, sigma=2.0))
        got, refused = split_labels(s.boxes, labels, 100, default_split_threshold(100), seed=0)
        assert got.tolist() == labels
        assert refused.tolist() == [False, False]

    def test_merged_pair_splits_into_two(self):
        spec = separated_scene(1, 2, sigma=2.0)
        s, labels, _ = generate(spec)
        assert len(s) == 200
        got, refused = split_labels(s.boxes, [0] * 200, 100, threshold=150, seed=1)
        assert refused.tolist() == [False, False]
        assert adjusted_rand_index(labels, got) == 1.0

    def test_identical_points_refuse_split(self):
        boxes = [(10, 10, 40, 40)] * 151
        s = simple_set(boxes, n_repetitions=151, reps=list(range(151)))
        got, refused = split_labels(s.boxes, [0] * 151, 151, threshold=150, seed=0)
        assert got.tolist() == [0] * 151
        assert refused.tolist() == [True]

    def test_output_is_partition(self):
        spec = separated_scene(2, 3, sigma=2.0)
        s, _, _ = generate(spec)
        got, refused = split_labels(s.boxes, [0] * len(s), 100, default_split_threshold(100), 2)
        assert got.shape == (len(s),)
        assert np.bincount(got).min() >= 1
        assert refused.shape == (got.max() + 1,)

    @pytest.mark.parametrize("algorithm, clusters, digest", [
        ("bgm", 24, "db22f721fc8ebaa17ae59030efc48c2be602fc4519b15111b0541fa8260f6fc1"),
        ("agg", 21, "d1c3b4eb96d56186d9a1384b463c0f63ca9107b681f6eb5acffb3264fd418c2d"),
    ])
    def test_dense_scene_pinned(self, algorithm, clusters, digest):
        # 20 overlapping instances x 100 repetitions, threshold 60: the rule
        # splits some clusters and refuses 20. The counts and the SHA-256 of
        # the int64 labels are pinned, so any change to a fit's input rows,
        # their order or the numbering shows.
        s, _, _ = generate(overlapping_scene(0, 20))
        labels, refused = cluster_pipeline(s, algorithm, split_threshold=60, seed=1)
        assert (refused.size, int(refused.sum())) == (clusters, 20)
        assert labels.dtype == np.int64
        assert hashlib.sha256(labels.tobytes()).hexdigest() == digest


class TestClusterPipeline:
    def test_single_instance_single_cluster(self):
        s, labels, _ = generate(separated_scene(3, 1, sigma=2.0))
        got, refused = cluster_pipeline(s, seed=3)
        assert len(refused) == 1
        assert adjusted_rand_index(labels, got) == 1.0

    @pytest.mark.parametrize("algorithm", ["bgm", "agg"])
    def test_three_instances_recovered(self, algorithm):
        s, labels, _ = generate(separated_scene(4, 3, sigma=2.0))
        got, _ = cluster_pipeline(s, algorithm, seed=4)
        assert adjusted_rand_index(labels, got) >= 0.99

    def test_deterministic(self):
        s, _, _ = generate(separated_scene(5, 3, sigma=2.0))
        a = cluster_pipeline(s, seed=5)
        b = cluster_pipeline(s, seed=5)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_partition_property(self):
        s, _, _ = generate(separated_scene(6, 4, sigma=3.0))
        labels, refused = cluster_pipeline(s, seed=6)
        assert labels.shape == (len(s),)
        assert np.bincount(labels).min() >= 1  # ids 0..k-1, each used
        assert refused.shape == (labels.max() + 1,)

    def test_translation_equivariance(self):
        spec = separated_scene(7, 3, sigma=2.0, width=2000, height=2000)
        s, _, _ = generate(spec)
        base, _ = cluster_pipeline(s, seed=7)
        shifted = SampleSet(
            s.image_id, s.height, s.width, s.n_repetitions,
            s.boxes + (37.25, 41.5, 37.25, 41.5), s.scores, s.repetition, mask_rows(s),
        )
        moved, _ = cluster_pipeline(shifted, seed=7)
        assert adjusted_rand_index(base, moved) == 1.0

    def test_permutation_invariance(self):
        s, _, _ = generate(separated_scene(8, 3, sigma=2.0))
        rng = np.random.default_rng(8)
        perm = rng.permutation(len(s))
        permuted = s.take(perm)
        # A SampleSet re-sorts its rows by repetition: this is the order that survives.
        perm = perm[np.argsort(s.repetition[perm], kind="stable")]
        base, _ = cluster_pipeline(s, seed=8)
        moved, _ = cluster_pipeline(permuted, seed=8)
        assert adjusted_rand_index(base[perm], moved) == 1.0

    def test_empty_error(self):
        s = SampleSet("img", 10, 10, 1, np.empty((0, 4)), np.empty((0, 2)), [], ())
        with pytest.raises(ValueError, match="^nothing to cluster: 0 detections$"):
            cluster_pipeline(s, seed=0)

    def test_single_instance_components_run_no_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("no fit expected")

        monkeypatch.setattr(bgm, "fit_bgm", no_fit)
        monkeypatch.setattr(ward, "fit_agglomerative", no_fit)
        s, labels, _ = generate(separated_scene(9, 5, sigma=3.0))
        for algorithm in ("bgm", "agg"):
            got, refused = cluster_pipeline(s, algorithm, seed=9)
            assert len(refused) == 5
            assert adjusted_rand_index(labels, got) == 1.0

    def test_each_fit_sees_only_its_component(self, monkeypatch):
        # Instances 0 and 1 overlap, 2 stands apart: one fit, on 2 x 30 points.
        rng = np.random.default_rng(0)
        centers = [(100, 100), (130, 100), (500, 500)]
        boxes = [
            tuple(np.add((cx, cy, cx + 60, cy + 60), rng.normal(0.0, 1.0, 4)))
            for _ in range(30) for cx, cy in centers
        ]
        pair = simple_set(boxes, n_repetitions=30, reps=[i // 3 for i in range(90)])
        calls = []

        def recording_fit(points, k_max, seed):
            calls.append((len(points), k_max))
            return fit_bgm(points, k_max, seed)

        monkeypatch.setattr(bgm, "fit_bgm", recording_fit)
        labels, _ = cluster_pipeline(pair, seed=0)
        assert calls == [(60, 4)]
        assert np.bincount(labels).tolist() == [30, 30, 30]
        assert np.flatnonzero(labels == 2).tolist() == list(range(2, 90, 3))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_component_runs_the_whole_image_fit(self, seed):
        s, _, _ = generate(overlapping_scene(seed, 3))
        assert overlap_components(s.boxes).max() == 0
        h = estimate_component_count(len(s), s.n_repetitions)
        whole = fit_bgm(s.boxes, max(2 * h, h + 2), seed=seed).labels
        threshold = default_split_threshold(s.n_repetitions)
        expected = split_labels(s.boxes, whole, s.n_repetitions, threshold, seed)
        got = cluster_pipeline(s, seed=seed)
        assert got[0].tolist() == expected[0].tolist()
        assert got[1].tolist() == expected[1].tolist()

    def test_oversized_survivor_carries_refusal_flag(self):
        # 151 identical detections cannot split: the one oversized cluster
        # in the pipeline output must be flagged
        boxes = [(10, 10, 40, 40)] * 151
        s = simple_set(boxes, n_repetitions=151, reps=list(range(151)))
        labels, refused = cluster_pipeline(s, split_threshold=150, seed=0)
        assert (np.bincount(labels) > 150).tolist() == refused.tolist()


class TestConvergenceWarning:
    def test_fit_at_the_cap_warns(self, monkeypatch):
        monkeypatch.setattr(bgm, "_MAX_ITERS", 2)
        s, _, _ = generate(overlapping_scene(0, 10))
        with pytest.warns(bgm.ConvergenceWarning) as record:
            cluster_pipeline(s, seed=0)
        assert str(record[0].message).startswith(
            "mixture fit on 1000 points did not converge within the cap of 2 iterations"
        )
        # pyproject.toml and CI turn RuntimeWarnings into errors; this must stay a warning.
        assert not issubclass(bgm.ConvergenceWarning, RuntimeWarning)

    def test_converged_fit_warns_nothing(self, monkeypatch):
        fits = []

        def recording_fit(points, k_max, seed):
            fits.append(fit_bgm(points, k_max, seed))
            return fits[-1]

        monkeypatch.setattr(bgm, "fit_bgm", recording_fit)
        s, _, _ = generate(overlapping_scene(0, 10))
        with warnings.catch_warnings():
            warnings.simplefilter("error", bgm.ConvergenceWarning)
            cluster_pipeline(s, seed=0)
        assert fits and all(f.converged for f in fits)
