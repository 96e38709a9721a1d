"""Scaled unscented transformation.

For an n-dimensional Gaussian (mean, cov) the 2n+1 sigma points are::

    X_0 = mean
    X_i = mean + col_i(sqrt((n + lam) cov))      i = 1..n
    X_i = mean - col_(i-n)(sqrt((n + lam) cov))  i = n+1..2n

with ``lam = alpha^2 (n + k) - n`` and weights::

    W_0^mean = lam / (n + lam)
    W_0^cov  = lam / (n + lam) + (1 - alpha^2 + beta)
    W_i^mean = W_i^cov = 1 / (2 (n + lam))       i >= 1

The matrix square root is the lower Cholesky factor.  When a covariance is
only positive semidefinite, a diagonal jitter of ``1e-12 * trace / n`` is
added and escalated by factors of 10 up to ``1e-6 * trace / n`` before
giving up (an exactly zero matrix falls back to an absolute ladder from
1e-18 to 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefiniteError

__all__ = ["SutParams", "SigmaPointSet", "make_sigma_points", "propagate",
           "sigma_points_batch"]

_JITTER_STEPS = 7  # 1e-12 .. 1e-6 relative, factor 10 per step


@dataclass(frozen=True)
class SutParams:
    """Scaled unscented transform parameters.

    Defaults match the shipped estimation profiles: ``alpha=1`` keeps the
    spread at sqrt(n + k), ``beta=30`` overweights the central covariance
    residual.
    """

    alpha: float = 1.0
    k: float = 2.0
    beta: float = 30.0
    n_x: int = 6

    def __post_init__(self):
        if not np.isfinite([self.alpha, self.k, self.beta]).all():
            raise ValueError("alpha, k and beta must be finite")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.k < 0.0:
            raise ValueError("k must be non-negative")
        if self.n_x < 1:
            raise ValueError("n_x must be at least 1")
        if self.n_x + self.lam <= 0.0:
            raise ValueError("n_x + lambda must be positive")

    @property
    def lam(self) -> float:
        return self.alpha ** 2 * (self.n_x + self.k) - self.n_x

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance weight vectors of length 2 n_x + 1."""
        n = self.n_x
        lam = self.lam
        w_mean = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
        w_cov = w_mean.copy()
        w_mean[0] = lam / (n + lam)
        w_cov[0] = lam / (n + lam) + (1.0 - self.alpha ** 2 + self.beta)
        return w_mean, w_cov


@dataclass(frozen=True)
class SigmaPointSet:
    points: np.ndarray  # (2n+1, n)
    w_mean: np.ndarray  # (2n+1,)
    w_cov: np.ndarray   # (2n+1,)


def _cholesky_jittered(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with escalating diagonal jitter."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    n = mat.shape[-1]
    trace = float(np.trace(mat))
    scale = trace / n if trace > 0.0 else 1e-6
    eye = np.eye(n)
    for step in range(_JITTER_STEPS):
        jitter = scale * 1e-12 * 10.0 ** step
        try:
            return np.linalg.cholesky(mat + jitter * eye)
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefiniteError(
        f"covariance not positive definite after jitter up to {scale * 1e-6:.3e}")


def sigma_points_batch(means: np.ndarray, covs: np.ndarray,
                       params: SutParams) -> np.ndarray:
    """Sigma points for a batch of Gaussians.

    ``means`` has shape (B, n), ``covs`` shape (B, n, n); the result is
    (B, 2n+1, n).  Covariances are symmetrized before factoring.
    """
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    B, n = means.shape
    if n != params.n_x:
        raise ValueError(f"dimension mismatch: means are {n}-d, params expect {params.n_x}")
    scaled = (params.n_x + params.lam) * 0.5 * (covs + np.swapaxes(covs, -1, -2))
    try:
        L = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        L = np.stack([_cholesky_jittered(m) for m in scaled])
    points = np.empty((B, 2 * n + 1, n))
    points[:, 0, :] = means
    cols = np.swapaxes(L, -1, -2)  # row i is column i of L
    points[:, 1:n + 1, :] = means[:, None, :] + cols
    points[:, n + 1:, :] = means[:, None, :] - cols
    return points


def make_sigma_points(mean: np.ndarray, cov: np.ndarray,
                      params: SutParams) -> SigmaPointSet:
    """Sigma point set for a single Gaussian (see module docstring)."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    pts = sigma_points_batch(mean[None, :], cov[None, :, :], params)[0]
    w_mean, w_cov = params.weights()
    return SigmaPointSet(points=pts, w_mean=w_mean, w_cov=w_cov)


def propagate(sigma: SigmaPointSet, g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push sigma points through ``g`` and form output moments.

    ``g`` maps one n-vector to one p-vector.  Returns ``(y_mean, P_y,
    P_xy)`` where ``P_y`` is explicitly symmetrized and ``P_xy`` is the
    input-output cross covariance about the weighted input mean.
    """
    X = sigma.points
    Y = np.asarray([np.asarray(g(x), dtype=float).reshape(-1) for x in X])
    y_mean = sigma.w_mean @ Y
    x_mean = sigma.w_mean @ X
    dY = Y - y_mean
    dX = X - x_mean
    P_y = np.einsum("s,si,sj->ij", sigma.w_cov, dY, dY)
    P_y = 0.5 * (P_y + P_y.T)
    P_xy = np.einsum("s,si,sj->ij", sigma.w_cov, dX, dY)
    return y_mean, P_y, P_xy
