import inspect
import math

import numpy as np
import pytest

from _scenes import overlapping_scene
from dropuq import bgm
from dropuq.bgm import MixtureState, fit_bgm
from dropuq.clustering import cluster_pipeline
from dropuq.synth import generate


def blobs(centers, n_each, sigma, seed):
    rng = np.random.default_rng(seed)
    pts, labels = [], []
    for i, c in enumerate(centers):
        pts.append(rng.normal(0.0, sigma, (n_each, 4)) + np.asarray(c, dtype=float))
        labels += [i] * n_each
    return np.vstack(pts), np.array(labels)


TWO_FAR = [(100, 100, 150, 160), (300, 250, 360, 320)]  # >> 20 sigma apart at sigma=2


class TestFitBgm:
    def test_single_point_single_component(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        state = fit_bgm(x, 1, seed=0)
        assert state.effective_components == 1
        assert np.allclose(state.means[0], x[0], atol=1e-6)

    def test_two_separated_blobs(self):
        x, labels = blobs(TWO_FAR, 100, 2.0, seed=1)
        state = fit_bgm(x, 5, seed=3)
        assert state.effective_components == 2
        got = state.labels
        # exact partition match up to component renumbering
        assert len(set(zip(labels.tolist(), got.tolist()))) == 2

    def test_elbo_trace_non_decreasing(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 80))
            x = rng.normal(0, 40, (n, 4)) + rng.uniform(0, 400, 4)
            state = fit_bgm(x, int(rng.integers(1, 7)), seed=seed)
            trace = np.asarray(state.elbo_trace)
            assert trace.size >= 1
            if trace.size > 1:
                assert np.min(np.diff(trace)) > -1e-8

    def test_responsibilities_row_stochastic(self):
        x, _ = blobs(TWO_FAR, 60, 3.0, seed=5)
        state = fit_bgm(x, 4, seed=5)
        sums = state.responsibilities.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-9

    def test_deterministic(self):
        x, _ = blobs(TWO_FAR, 50, 2.0, seed=8)
        a = fit_bgm(x, 5, seed=11)
        b = fit_bgm(x, 5, seed=11)
        assert np.array_equal(a.responsibilities, b.responsibilities)
        assert a.elbo_trace == b.elbo_trace
        assert np.array_equal(a.means, b.means)

    def test_identical_points_collapse(self):
        x = np.tile([10.0, 20.0, 30.0, 40.0], (151, 1))
        state = fit_bgm(x, 3, seed=0)
        assert state.effective_components == 1

    def test_rejects_non_finite(self):
        x = np.array([[0.0, 1.0, 2.0, np.nan]])
        with pytest.raises(ValueError, match="^points contain non-finite values$"):
            fit_bgm(x, 1, seed=0)

    def test_signature_pinned(self):
        assert list(inspect.signature(fit_bgm).parameters) == ["points", "k_max", "seed"]

    def test_rejects_empty_and_bad_kmax(self):
        with pytest.raises(
            ValueError, match=r"^points must be a non-empty 2-D matrix, got shape \(0, 4\)$"
        ):
            fit_bgm(np.empty((0, 4)), 1, seed=0)
        with pytest.raises(ValueError, match="^k_max must be >= 1, got 0$"):
            fit_bgm(np.ones((3, 4)), 0, seed=0)


class TestLabels:
    def test_first_argmax_of_responsibilities(self):
        x, _ = blobs(TWO_FAR, 40, 2.5, seed=9)
        state = fit_bgm(x, 4, seed=9)
        expect = [int(np.argmax(row)) for row in state.responsibilities]
        assert state.labels.tolist() == expect
        assert state.labels.dtype == np.int64
        assert state.effective_components == len(set(expect))
        for arr in (state.means, state.responsibilities, state.labels):
            with pytest.raises(ValueError):
                arr[0] = 0


# The per-component updates that the batched _m_step and _e_step replaced,
# kept as the reference: one scatter matrix, Cholesky solve and column of
# log-densities per component, and scipy's logsumexp.
def _reference_m_step(X, resp, gamma0, beta0, m0, nu0, scale_inv0):
    nk = resp.sum(axis=0) + 10.0 * np.finfo(resp.dtype).eps
    xk = (resp.T @ X) / nk[:, None]
    K, D = xk.shape
    sk = np.empty((K, D, D))
    for k in range(K):
        diff = X - xk[k]
        sk[k] = ((resp[:, k] * diff.T) @ diff) / nk[k]
    beta = beta0 + nk
    scale_inv = np.empty((K, D, D))
    for k in range(K):
        dk = xk[k] - m0
        scale_inv[k] = scale_inv0 + nk[k] * sk[k] + (beta0 * nk[k] / beta[k]) * np.outer(dk, dk)
    chol = np.linalg.cholesky(scale_inv)
    return bgm._Posterior(
        stick_a=1.0 + nk,
        stick_b=gamma0 + bgm._exclusive_tail_sums(nk),
        beta=beta,
        means=(beta0 * m0 + nk[:, None] * xk) / beta[:, None],
        nu=nu0 + nk,
        chol=chol,
        log_det_scale_inv=2.0 * np.sum(np.log(np.einsum("kii->ki", chol)), axis=1),
    )


def _reference_e_step(X, post):
    from scipy.linalg import solve_triangular
    from scipy.special import digamma, logsumexp

    n, D = X.shape
    K = post.means.shape[0]
    log_rho = np.empty((n, K))
    e_log_pi = bgm._expected_log_weights(post)
    for k in range(K):
        e_log_det = (
            np.sum(digamma(0.5 * (post.nu[k] + 1.0 - np.arange(1, D + 1))))
            + D * math.log(2.0)
            - post.log_det_scale_inv[k]
        )
        y = solve_triangular(post.chol[k], (X - post.means[k]).T, lower=True)
        quad = post.nu[k] * np.sum(y * y, axis=0)
        log_rho[:, k] = e_log_pi[k] + 0.5 * (
            e_log_det - D * bgm._LOG_2PI - D / post.beta[k] - quad
        )
    return log_rho - logsumexp(log_rho, axis=1, keepdims=True)


def _close(a, b, rtol):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.abs(a - b).max() <= rtol * np.abs(b).max()


def _assert_same_fit(got: MixtureState, ref: MixtureState):
    assert np.array_equal(got.labels, ref.labels)
    assert (got.n_iter, got.converged) == (ref.n_iter, ref.converged)
    assert got.effective_components == ref.effective_components
    assert _close(got.means, ref.means, 1e-12)
    assert _close(got.responsibilities, ref.responsibilities, 1e-10)
    # Last-bit differences grow along slowly converging traces: reordering
    # the reference's own arithmetic moves a trace by up to 1e-11.
    assert _close(got.elbo_trace, ref.elbo_trace, 1e-10)


class TestReferenceEquivalence:
    """The batched updates reproduce the per-component ones."""

    @pytest.fixture
    def reference(self, monkeypatch):
        def use_reference():
            monkeypatch.setattr(bgm, "_m_step", _reference_m_step)
            monkeypatch.setattr(bgm, "_e_step", _reference_e_step)

        return use_reference

    def test_random_fits(self, reference):
        rng = np.random.default_rng(2024)
        cases = []
        for i in range(200):
            n = int(rng.integers(5, 401))
            centers = rng.uniform(0, 400, (int(rng.integers(1, 6)), 4))
            x = centers[rng.integers(len(centers), size=n)] + rng.normal(
                0, rng.uniform(2, 30), (n, 4)
            )
            cases.append((x, int(rng.integers(1, 17)), i % 7))
        got = [fit_bgm(x, k, seed) for x, k, seed in cases]
        reference()
        for state, (x, k, seed) in zip(got, cases):
            _assert_same_fit(state, fit_bgm(x, k, seed))

    def test_overlapping_scene_pipelines(self, reference, monkeypatch):
        fits = []

        def recording_fit(points, k_max, seed):
            fits.append(fit_bgm(points, k_max, seed))
            return fits[-1]

        monkeypatch.setattr(bgm, "fit_bgm", recording_fit)

        def run_all():
            fits.clear()
            labels = []
            for seed in range(50):
                n_instances = int(np.random.default_rng(seed).integers(2, 5))
                sample_set, _, _ = generate(overlapping_scene(seed, n_instances))
                labels.append(cluster_pipeline(sample_set, seed=seed)[0].tolist())
            return labels, list(fits)

        got_labels, got_fits = run_all()
        reference()
        ref_labels, ref_fits = run_all()
        assert got_labels == ref_labels
        assert len(got_fits) == len(ref_fits) >= 50
        for state, ref in zip(got_fits, ref_fits):
            _assert_same_fit(state, ref)
