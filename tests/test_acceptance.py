"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints one `[ACCEPT] <criterion>: PASS` line (visible with -s);
a failing criterion fails its test. The comparator-ordering criterion is a
soft check by design: it reports both numbers and warns instead of failing.
"""

import math
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from _scenes import overlapping_scene, separated_scene
from dropuq.calibration import (
    CalibrationSet,
    ace,
    fit_temperature,
    focal_loss,
    mce,
    negative_log_likelihood,
    reliability,
    softmax,
)
from dropuq import bgm
from dropuq.bgm import fit_bgm
from dropuq.clustering import build_instance_clusters, cluster_pipeline, split_labels
from dropuq.evaluation import (
    GroundTruthInstance,
    PredictedInstance,
    cluster_to_detection,
    match_and_score,
)
from dropuq.ingest import filter_background
from dropuq.report import build_report, kde, mask_stats
from dropuq.synth import (
    adjusted_rand_index,
    generate,
    generate_calibration_records,
    scene_spec_to_json,
)


def _accept(name):
    print(f"[ACCEPT] {name}: PASS")


def test_clustering_recovery():
    """Synth scenes, 1-10 instances, n=100, separation >= 10x jitter sigma:
    pipeline ARI >= 0.99 on >= 95% of 100 seeds, < 5 s per scene."""
    sigma = 3.0  # grid spacing 140 px >> 10 sigma
    passed = 0
    worst_runtime = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed + 1000)
        n_instances = int(rng.integers(1, 11))
        spec = separated_scene(seed, n_instances, sigma=sigma, n_repetitions=100)
        sample_set, labels, _ = generate(spec)
        start = time.monotonic()
        got, _ = cluster_pipeline(sample_set, seed=seed)
        elapsed = time.monotonic() - start
        worst_runtime = max(worst_runtime, elapsed)
        ari = adjusted_rand_index(labels, got)
        if ari >= 0.99:
            passed += 1
    assert passed >= 95, f"ARI >= 0.99 on only {passed}/100 seeds"
    assert worst_runtime < 5.0, f"slowest scene took {worst_runtime:.2f}s"
    _accept(f"clustering recovery ({passed}/100 seeds, worst {worst_runtime:.2f}s)")


def test_clustering_recovery_at_scale():
    """64 separated instances (8 x 8 grid, 140 px spacing, sigma 3) x 100
    repetitions: ARI >= 0.99 with the mixture and 1.0 with Ward, < 5 s each."""
    spec = separated_scene(
        1, 64, sigma=3.0, n_repetitions=100, columns=8, height=1160, width=1160
    )
    sample_set, labels, _ = generate(spec)
    assert len(sample_set) == 6400
    results = []
    for algorithm, floor in (("bgm", 0.99), ("agg", 1.0)):
        start = time.monotonic()
        got, _ = cluster_pipeline(sample_set, algorithm, seed=1)
        elapsed = time.monotonic() - start
        ari = adjusted_rand_index(labels, got)
        assert ari >= floor, f"{algorithm}: ARI {ari:.4f} < {floor}"
        assert elapsed < 5.0, f"{algorithm}: took {elapsed:.2f}s"
        results.append(f"{algorithm} ARI {ari:.3f} in {elapsed:.2f}s")
    _accept(f"clustering recovery at scale ({'; '.join(results)})")


def test_effective_component_inference():
    """K_max = 2x true K still reports effective_components == true K."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        true_k = int(rng.integers(1, 9))
        spec = separated_scene(seed + 300, true_k, sigma=2.0, n_repetitions=100)
        sample_set, _, _ = generate(spec)
        state = fit_bgm(sample_set.boxes, 2 * true_k, seed=seed)
        assert state.effective_components == true_k, (
            f"seed {seed}: true K {true_k}, effective {state.effective_components}"
        )
    _accept("effective-component inference (20/20 seeds)")


def test_split_rule():
    """A merged 200-member cluster (two instances, n=100) splits into 2."""
    spec = separated_scene(7, 2, sigma=2.0, n_repetitions=100)
    sample_set, labels, _ = generate(spec)
    assert len(sample_set) == 200
    got, refused = split_labels(sample_set.boxes, [0] * 200, 100, threshold=150, seed=7)
    assert len(refused) == 2, f"expected 2 clusters, got {len(refused)}"
    assert adjusted_rand_index(labels, got) == 1.0
    _accept("split rule (200 members -> 2 clusters at threshold 150)")


def test_elbo_monotonicity(monkeypatch):
    """1000 random fits: no variational step decreases the bound by > 1e-8."""
    monkeypatch.setattr(bgm, "_MAX_ITERS", 200)
    monkeypatch.setattr(bgm, "_N_INIT", 1)
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        points = rng.normal(0.0, 40.0, (n, 4)) + rng.uniform(0.0, 400.0, 4)
        state = fit_bgm(points, int(rng.integers(1, 7)), seed=seed)
        trace = np.asarray(state.elbo_trace)
        if trace.size > 1:
            worst = min(worst, float(np.min(np.diff(trace))))
        assert trace.size == 0 or worst >= -1e-8, f"seed {seed}: step {worst}"
    _accept(f"ELBO monotonicity (1000 fits, worst step {worst:.2e})")


def _grid_oracle_nll(records):
    """Exhaustive NLL over T in {0.01, 0.02, ..., 100}."""
    z, y = records.logits, records.true_class
    z = z - z.max(axis=1, keepdims=True)
    grid = np.arange(1, 10001) * 0.01
    best = np.inf
    for chunk in np.array_split(grid, 50):
        zt = z[None, :, :] / chunk[:, None, None]
        nll = (np.log(np.exp(zt).sum(axis=2)) - zt[:, np.arange(len(y)), y]).sum(axis=1)
        best = min(best, float(nll.min()))
    return best


def test_temperature_recovery():
    """T* in {0.5, 1, 2, 4}, n=10000: fitted T within 2%, NLL within 1e-6
    relative of the grid-search oracle minimum."""
    for true_t in (0.5, 1.0, 2.0, 4.0):
        records = generate_calibration_records(10000, true_t, 3, seed=int(true_t * 10))
        fitted = fit_temperature(records)
        assert abs(fitted - true_t) / true_t < 0.02, f"T*={true_t}: fitted {fitted}"
        oracle = _grid_oracle_nll(records)
        got = negative_log_likelihood(records, fitted)
        assert got <= oracle + 1e-6 * abs(oracle), (
            f"T*={true_t}: NLL {got} vs oracle {oracle}"
        )
    _accept("temperature recovery (T* in {0.5, 1, 2, 4} within 2%, NLL at oracle)")


def _miscalibrated_two_class(n, true_t, seed):
    """Calibrated two-class records (confidence uniform in [0.55, 0.95]),
    logits then scaled by true_t."""
    rng = np.random.default_rng(seed)
    confidence = rng.uniform(0.55, 0.95, n)
    gap = np.log(confidence / (1.0 - confidence))
    correct = rng.random(n) < confidence
    logits = np.stack([np.zeros(n), gap * true_t], axis=1)
    return CalibrationSet(logits, correct.astype(np.int64))


def test_calibration_direction():
    """Post-scaling MCE and ACE <= pre-scaling values in 100/100 seeds."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        true_t = float(rng.uniform(2.0, 4.0)) if seed % 2 == 0 else float(rng.uniform(0.25, 0.5))
        records = _miscalibrated_two_class(10000, true_t, seed)
        before = reliability(records, 1.0, 10)
        fitted = fit_temperature(records)
        after = reliability(records, fitted, 10)
        assert mce(after) <= mce(before), f"seed {seed}: MCE worsened"
        assert ace(after) <= ace(before), f"seed {seed}: ACE worsened"
    _accept("calibration direction (MCE and ACE reduced, 100/100 seeds)")


def test_argmax_invariance():
    """10^5 random logit vectors x random T > 0: argmax always preserved."""
    rng = np.random.default_rng(99)
    cases = [(rng.normal(0.0, 4.0, 6), float(rng.uniform(0.01, 100.0))) for _ in range(100_000)]
    z = np.array([logits for logits, _ in cases])
    t = np.array([[temperature] for _, temperature in cases])
    # Dividing by T = 1 is exact, so softmax(z / t) holds softmax(z_i, t_i) in
    # row i, bit for bit; the first 1000 rows check that.
    p = softmax(z / t)
    for i in range(1000):
        assert softmax(z[i : i + 1], float(t[i, 0])).tobytes() == p[i : i + 1].tobytes()
    assert (p.argmax(axis=1) == z.argmax(axis=1)).all()
    _accept("argmax invariance (10^5 cases)")


def test_focal_loss_reduction():
    """gamma=0, alpha=1 equals cross-entropy to 1e-12 over 10^4 vectors;
    focal <= CE for all gamma >= 0."""
    rng = np.random.default_rng(5)
    rows, classes, gammas = [], [], []
    for _ in range(10_000):
        raw = rng.dirichlet(np.ones(5))
        true_class = int(rng.integers(0, 5))
        if raw[true_class] <= 0.0:
            continue
        rows.append(raw)
        classes.append(true_class)
        gammas.append(float(rng.uniform(0.0, 8.0)))
    # Logits log(p) have softmax p, to rounding.
    records = CalibrationSet(np.log(rows), np.array(classes))
    ce = -np.log([raw[c] for raw, c in zip(rows, classes)])
    assert (np.abs(focal_loss(records, gamma=0.0) - ce) <= 1e-12).all()
    assert (focal_loss(records, gamma=gammas) <= ce + 1e-12).all()
    _accept("focal-loss reduction (10^4 vectors)")


def test_bernoulli_identity():
    """std_mask == sqrt(mean * (1 - mean)) pixelwise to 1e-12."""
    for seed in range(5):
        spec = separated_scene(
            seed + 50, 2, sigma=2.0, n_repetitions=30, shape="ellipse",
            mask_noise=0.3, height=160, width=240,
        )
        sample_set, _, _ = generate(spec)
        clusters = build_instance_clusters(sample_set, *cluster_pipeline(sample_set, seed=seed))
        for cluster in clusters:
            stats = mask_stats(cluster)
            expect = np.sqrt(stats.mean_mask * (1.0 - stats.mean_mask))
            assert np.abs(stats.std_mask - expect).max() <= 1e-12
    _accept("Bernoulli identity (pixelwise to 1e-12)")


def test_map_sanity():
    """Perfect synth predictions give exactly 1.0 (box and mask); the
    3-pred/2-gt case matches the brute-force PR oracle exactly."""
    spec = separated_scene(
        60, 3, sigma=0.0, n_repetitions=100, shape="box", height=200, width=400
    )
    sample_set, _, gts = generate(spec)
    clusters = build_instance_clusters(sample_set, *cluster_pipeline(sample_set, seed=60))
    preds = [cluster_to_detection(c, sample_set.image_id) for c in clusters]
    for mode in ("box", "mask"):
        result = match_and_score(preds, gts, mode=mode)
        assert result.map50 == 1.0, f"{mode} mAP {result.map50}"

    gts2 = [
        GroundTruthInstance("i", (0, 0, 10, 10), 1),
        GroundTruthInstance("i", (100, 0, 110, 10), 1),
    ]
    preds2 = [
        PredictedInstance("i", (0, 0, 10, 10), 1, 0.9),
        PredictedInstance("i", (50, 50, 60, 60), 1, 0.8),
        PredictedInstance("i", (100, 0, 110, 10), 1, 0.7),
    ]
    # brute-force 101-point oracle over PR points (0.5,1.0), (0.5,0.5), (1.0,2/3)
    pr = [(0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3)]
    oracle = 0.0
    for i in range(101):
        r = i / 100.0
        hits = [p for rec, p in pr if rec >= r - 1e-12]
        oracle += max(hits) if hits else 0.0
    oracle /= 101.0
    got = match_and_score(preds2, gts2, mode="box").per_class_ap[1]
    assert got == oracle, f"AP {got} vs oracle {oracle}"
    _accept("mAP sanity (perfect scene 1.0; hand case matches PR oracle)")


def test_kde_normalization():
    """Integral within 1e-2 of 1; standard-normal density at 0 within 5%
    of 1/sqrt(2 pi) at n=10000."""
    rng = np.random.default_rng(17)
    curve = kde(rng.normal(0.0, 1.0, 10000))
    at_zero = float(np.interp(0.0, curve.grid, curve.density))
    target = 1.0 / math.sqrt(2.0 * math.pi)
    assert abs(at_zero - target) / target < 0.05
    for samples in (
        rng.normal(0.0, 1.0, 10000),
        rng.uniform(0.0, 1.0, 2000),
        rng.beta(8.0, 2.0, 3000),
    ):
        c = kde(samples)
        integral = float(np.trapezoid(c.density, c.grid))
        assert abs(integral - 1.0) < 1e-2
    _accept("KDE normalization (integral within 1e-2; N(0,1) peak within 5%)")


def test_comparator_ordering():
    """Soft check: mean ARI(BGM) >= mean ARI(AGG) - 0.01 on 50 scenes with
    3-5 sigma separation. Reports both numbers; warns instead of failing."""
    bgm_scores, agg_scores = [], []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_instances = int(rng.integers(2, 5))
        spec = overlapping_scene(seed, n_instances)
        sample_set, labels, _ = generate(spec)
        for algorithm, bucket in (("bgm", bgm_scores), ("agg", agg_scores)):
            got, _ = cluster_pipeline(sample_set, algorithm, seed=seed)
            bucket.append(adjusted_rand_index(labels, got))
    mean_bgm = float(np.mean(bgm_scores))
    mean_agg = float(np.mean(agg_scores))
    line = f"mean ARI: BGM {mean_bgm:.4f}, AGG {mean_agg:.4f}"
    if mean_bgm < mean_agg - 0.01:
        warnings.warn(f"comparator ordering violated ({line})")
        print(f"[ACCEPT] comparator ordering: WARN ({line})")
    else:
        _accept(f"comparator ordering ({line})")


def _run_cli(*argv):
    import os

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "dropuq", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, f"{argv}: rc {result.returncode}\n{result.stderr}"


def test_end_to_end_determinism(tmp_path):
    """synth -> cluster -> report -> eval twice: byte-identical trees."""
    spec = separated_scene(
        3, 2, sigma=2.0, n_repetitions=25, shape="ellipse",
        class_confusion=0.1, mask_noise=0.1, height=160, width=240,
    )
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(scene_spec_to_json(spec))

    def chain(root: Path):
        _run_cli("synth", scene_path, "--out-dir", root / "synth", "--seed", "21")
        samples = root / "synth" / "scene3_samples.jsonl"
        clusters = root / "clusters" / "scene3_clusters.json"
        _run_cli("cluster", samples, "--out-dir", root / "clusters", "--seed", "21")
        _run_cli("report", samples, "--clusters", clusters, "--out-dir", root / "reports")
        _run_cli(
            "eval", samples, "--clusters", clusters,
            "--gt", root / "synth" / "scene3_gt.jsonl", "--out-dir", root / "eval",
        )

    root = tmp_path / "run"
    chain(root)
    first = {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }
    shutil.rmtree(root)
    chain(root)
    second = {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }
    assert first == second
    _accept(f"end-to-end determinism ({len(first)} files byte-identical)")


def test_full_pipeline_runtime():
    """10 instances x 100 repetitions with 640x480 masks: under 30 s."""
    start = time.monotonic()
    spec = separated_scene(
        0, 10, sigma=3.0, n_repetitions=100, shape="ellipse",
        class_confusion=0.15, mask_noise=0.1, miss_rate=0.02,
        height=480, width=640,
    )
    sample_set, _, gts = generate(spec)
    filtered = filter_background(sample_set)
    clusters = build_instance_clusters(filtered, *cluster_pipeline(filtered, seed=0))
    reports = [build_report(c) for c in clusters]  # the report step, timed as in the CLI
    preds = [cluster_to_detection(c, sample_set.image_id) for c in clusters]
    for mode in ("box", "mask"):
        result = match_and_score(preds, gts, mode=mode)
        assert result.map50 == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"
    _accept(f"full pipeline runtime ({elapsed:.1f}s < 30s)")
