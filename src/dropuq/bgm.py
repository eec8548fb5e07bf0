"""Variational Bayesian Gaussian mixture with a stick-breaking weight prior.

Coordinate-ascent variational inference for a truncated Dirichlet-process
mixture of Gaussians: Beta posteriors on the stick lengths, Normal-Wishart
posteriors on (mean, precision). Unused components lose their mixing mass,
so the effective number of components is inferred from the data and only an
upper limit has to be supplied.

Priors are centered on the data: prior mean = empirical mean, prior scale =
empirical covariance (plus a small diagonal regularizer that keeps every
scale matrix positive-definite), prior mean-precision 1, prior degrees of
freedom = dimensionality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

# scipy.special is imported inside the functions that use it: loading scipy
# takes about 0.4 s, which a process that imports this module but fits no
# mixture should not pay at start-up.

__all__ = ["MixtureState", "ConvergenceWarning", "fit_bgm"]

_LOG_2PI = math.log(2.0 * math.pi)
_ELBO_TOL = 1e-4  # a restart converges once the lower bound moves less than this
_MAX_ITERS = 500  # variational iterations per restart at most
_N_INIT = 3  # restarts per fit
# Restarts whose final bounds differ by less than this, relative, tie and the
# earlier one wins, so the choice does not hang on the bound's last bits.
_TIE_RTOL = 1e-12


class ConvergenceWarning(UserWarning):
    """A mixture fit stopped at _MAX_ITERS before its lower bound settled."""


@dataclass(frozen=True)
class MixtureState:
    """Fitted variational mixture posterior."""

    means: np.ndarray              # (K, D)
    responsibilities: np.ndarray   # (n, K) row-stochastic
    labels: np.ndarray             # (n,) int64 argmax responsibility, ties to the lower index
    elbo_trace: Tuple[float, ...]  # one value per variational iteration
    effective_components: int      # distinct values in labels
    converged: bool
    n_iter: int


@dataclass(frozen=True)
class _Posterior:
    """Mid-fit posterior parameters; each M-step builds a new one."""

    stick_a: np.ndarray            # (K,) Beta first parameter
    stick_b: np.ndarray            # (K,) Beta second parameter
    beta: np.ndarray               # (K,) mean-precision scaling
    means: np.ndarray              # (K, D)
    nu: np.ndarray                 # (K,) Wishart degrees of freedom
    chol: np.ndarray               # (K, D, D) lower Cholesky factors of the inverse scales
    log_det_scale_inv: np.ndarray  # (K,)


def _exclusive_tail_sums(nk: np.ndarray) -> np.ndarray:
    """For each k, the total mass of components after k."""
    return np.concatenate((np.cumsum(nk[::-1])[-2::-1], [0.0]))


def _m_step(
    X: np.ndarray,
    resp: np.ndarray,
    gamma0: float,
    beta0: float,
    m0: np.ndarray,
    nu0: float,
    scale_inv0: np.ndarray,
) -> _Posterior:
    # Soft counts, means and scatter matrices of every component at once;
    # diff is (K, n, D), so the scatter is one batched (D, n) @ (n, D) matmul.
    nk = resp.sum(axis=0) + 10.0 * np.finfo(resp.dtype).eps
    xk = (resp.T @ X) / nk[:, None]
    diff = X - xk[:, None, :]
    sk = ((resp.T[:, None, :] * diff.transpose(0, 2, 1)) @ diff) / nk[:, None, None]
    beta = beta0 + nk
    dk = xk - m0
    scale_inv = (
        scale_inv0
        + nk[:, None, None] * sk
        + (beta0 * nk / beta)[:, None, None] * (dk[:, :, None] * dk[:, None, :])
    )
    try:
        chol = np.linalg.cholesky(scale_inv)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "could not reach positive-definite covariances after regularization"
        ) from exc
    return _Posterior(
        stick_a=1.0 + nk,
        stick_b=gamma0 + _exclusive_tail_sums(nk),
        beta=beta,
        means=(beta0 * m0 + nk[:, None] * xk) / beta[:, None],
        nu=nu0 + nk,
        chol=chol,
        log_det_scale_inv=2.0 * np.sum(np.log(np.einsum("kii->ki", chol)), axis=1),
    )


def _expected_log_weights(post: _Posterior) -> np.ndarray:
    from scipy.special import digamma

    dig_sum = digamma(post.stick_a + post.stick_b)
    dig_a = digamma(post.stick_a) - dig_sum
    dig_b = digamma(post.stick_b) - dig_sum
    return dig_a + np.concatenate(([0.0], np.cumsum(dig_b)[:-1]))


def _e_step(X: np.ndarray, post: _Posterior) -> np.ndarray:
    """Log responsibilities under the current posterior."""
    from scipy.special import digamma

    D = X.shape[1]
    # E[log |Lambda_k|] and E[(x-mu)^T Lambda (x-mu)] under Normal-Wishart;
    # the quadratic form uses residuals whitened by the inverse factors.
    e_log_det = (
        np.sum(digamma(0.5 * (post.nu[:, None] + 1.0 - np.arange(1, D + 1))), axis=1)
        + D * math.log(2.0)
        - post.log_det_scale_inv
    )
    y = (X - post.means[:, None, :]) @ np.linalg.inv(post.chol).transpose(0, 2, 1)
    quad = post.nu[:, None] * np.sum(y * y, axis=2)
    log_rho = (
        _expected_log_weights(post)[:, None]
        + 0.5 * ((e_log_det - D * _LOG_2PI - D / post.beta)[:, None] - quad)
    ).T
    top = log_rho.max(axis=1, keepdims=True)
    return log_rho - (top + np.log(np.sum(np.exp(log_rho - top), axis=1, keepdims=True)))


def _lower_bound(post: _Posterior, log_resp: np.ndarray, resp: np.ndarray) -> float:
    """Collapsed evidence lower bound, constants dropped.

    Valid right after an M-step, where the conjugate updates make the
    cross-entropy terms collapse into the posterior log-normalizers. Exact
    coordinate ascent keeps this sequence non-decreasing. ``resp`` is
    ``exp(log_resp)``, which the caller has already taken for the M-step.
    """
    from scipy.special import betaln, gammaln

    D = post.means.shape[1]
    xlogx = np.multiply(resp, log_resp, out=np.zeros_like(resp), where=resp > 0.0)
    entropy = -float(np.sum(xlogx))
    # log normalizer of each Wishart posterior (pi-power constants dropped).
    half_log_det_scale = -0.5 * post.log_det_scale_inv
    log_wishart = float(
        np.sum(
            -(
                post.nu * half_log_det_scale
                + post.nu * D * 0.5 * math.log(2.0)
                + np.sum(
                    gammaln(0.5 * (post.nu[None, :] - np.arange(D)[:, None])), axis=0
                )
            )
        )
    )
    log_beta_norm = float(-np.sum(betaln(post.stick_a, post.stick_b)))
    return (
        entropy
        - log_wishart
        - log_beta_norm
        - 0.5 * D * float(np.sum(np.log(post.beta)))
    )


def _kmeans_responsibilities(
    X: np.ndarray, K: int, rng: np.random.Generator, k_seed: Optional[int] = None
) -> np.ndarray:
    """One-hot responsibilities from a short k-means run with ++ seeding.

    ``k_seed`` caps the number of seeded centers; trailing components start
    empty and may still be activated by later variational steps.
    """
    n = X.shape[0]
    k_eff = min(K if k_seed is None else k_seed, n)
    centers = np.empty((k_eff, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k_eff):
        total = d2.sum()
        if total <= 0.0:
            centers[j:] = X[rng.integers(n, size=k_eff - j)]
            break
        centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    labels = None
    for _ in range(20):
        dists = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k_eff):
            member = labels == j
            if member.any():
                centers[j] = X[member].mean(axis=0)
    resp = np.zeros((n, K))
    resp[np.arange(n), labels] = 1.0
    return resp


def _random_responsibilities(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    resp = rng.random((X.shape[0], K))
    return resp / resp.sum(axis=1, keepdims=True)


def _merged_responsibilities(X: np.ndarray, K: int) -> np.ndarray:
    """Everything in the first component: the no-split candidate solution."""
    resp = np.zeros((X.shape[0], K))
    resp[:, 0] = 1.0
    return resp


def fit_bgm(points: np.ndarray, k_max: int, seed: int) -> MixtureState:
    """Fit the stick-breaking variational mixture to an (n, D) point matrix.

    Runs _N_INIT restarts, each seeded from ``seed`` and its index, and
    keeps the run with the best final lower bound. The three restarts span
    component scales so the bound can arbitrate between split and merged
    basins: k-means seeding with k_max centers, then the merged
    single-component candidate, then k-means with k_max // 2 centers when
    k_max >= 4, or random responsibilities when k_max < 4. Each iterates
    until the lower-bound change drops below 1e-4 or _MAX_ITERS is reached.
    The stick-breaking concentration is 1/k_max.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"points must be a non-empty 2-D matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("points contain non-finite values")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")

    n, D = X.shape
    m0 = X.mean(axis=0)
    emp_cov = np.cov(X.T, ddof=1) if n > 1 else np.zeros((D, D))
    emp_cov = np.atleast_2d(emp_cov)
    reg = 1e-6 * float(np.trace(emp_cov)) / D
    if not reg > 0.0:
        reg = 1e-6
    scale_inv0 = emp_cov + reg * np.eye(D)
    beta0 = 1.0
    nu0 = float(D)
    gamma0 = 1.0 / k_max

    half = k_max // 2
    best: Optional[Tuple[float, _Posterior, List[float], bool, int]] = None
    for restart in range(_N_INIT):
        rng = np.random.default_rng([seed, restart])
        if restart == 0:
            resp = _kmeans_responsibilities(X, k_max, rng)
        elif restart == 1:
            resp = _merged_responsibilities(X, k_max)
        elif restart == 2 and 2 <= half < k_max:
            resp = _kmeans_responsibilities(X, k_max, rng, k_seed=half)
        else:
            resp = _random_responsibilities(X, k_max, rng)
        post = _m_step(X, resp, gamma0, beta0, m0, nu0, scale_inv0)
        trace: List[float] = []
        prev = -np.inf
        converged = False
        for _ in range(_MAX_ITERS):
            log_resp = _e_step(X, post)
            resp = np.exp(log_resp)
            post = _m_step(X, resp, gamma0, beta0, m0, nu0, scale_inv0)
            elbo = _lower_bound(post, log_resp, resp)
            trace.append(elbo)
            if abs(elbo - prev) < _ELBO_TOL:
                converged = True
                break
            prev = elbo
        if best is None or trace[-1] > best[0] + _TIE_RTOL * abs(best[0]):
            best = (trace[-1], post, trace, converged, len(trace))

    _, post, trace, converged, n_iter = best
    resp = np.exp(_e_step(X, post))
    resp /= resp.sum(axis=1, keepdims=True)
    labels = np.argmax(resp, axis=1).astype(np.int64, copy=False)
    for arr in (post.means, resp, labels):
        arr.setflags(write=False)
    return MixtureState(
        means=post.means,
        responsibilities=resp,
        labels=labels,
        elbo_trace=tuple(trace),
        effective_components=int(np.count_nonzero(np.bincount(labels))),
        converged=converged,
        n_iter=n_iter,
    )
