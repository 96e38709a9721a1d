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

``unscented_transform`` pushes the sigma points of a batch of Gaussians
through a map ``g`` and returns the weighted output moments; it is the one
place the filter forms them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidConfigError, NotPositiveDefiniteError, as_real

__all__ = ["SutParams", "sigma_points_batch", "unscented_transform"]

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

    def __post_init__(self):
        # Each field becomes a float once; alpha > 0 and k >= 0 keep
        # n + lam = alpha^2 (n + k) positive.
        for f in fields(self):
            object.__setattr__(self, f.name, as_real(getattr(self, f.name), f.name, "a number"))
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise InvalidConfigError(f"{f.name} must be finite")
        if self.alpha <= 0.0:
            raise InvalidConfigError("alpha must be positive")
        if self.k < 0.0:
            raise InvalidConfigError("k must be non-negative")

    def lam(self, n: int) -> float:
        """Scaling ``lambda`` for n-dimensional Gaussians."""
        return self.alpha ** 2 * (n + self.k) - n

    def weights(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance weight vectors of length 2 n + 1."""
        lam = self.lam(n)
        w_mean = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
        w_cov = w_mean.copy()
        w_mean[0] = lam / (n + lam)
        w_cov[0] = lam / (n + lam) + (1.0 - self.alpha ** 2 + self.beta)
        return w_mean, w_cov


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
    scaled = (n + params.lam(n)) * 0.5 * (covs + np.swapaxes(covs, -1, -2))
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


def unscented_transform(means: np.ndarray, covs: np.ndarray, g,
                        params: SutParams, noise=0.0):
    """Output moments of ``g`` for a batch of Gaussians.

    ``means`` is (B, n) and ``covs`` (B, n, n); ``g`` maps an (M, n) stack
    of inputs to (M, p) outputs.  Returns ``(y_mean, P_y, P_xy)`` of shapes
    (B, p), (B, p, p) and (B, n, p).  ``noise`` is added to ``P_y``, which
    is symmetrized afterwards; ``P_xy`` is taken about ``means``.
    """
    means = np.asarray(means, dtype=float)
    X = sigma_points_batch(means, covs, params)          # (B, S, n)
    B, S_count, n = X.shape
    w_mean, w_cov = params.weights(n)

    Y = g(X.reshape(B * S_count, n)).reshape(B, S_count, -1)
    y_mean = np.einsum("s,bsp->bp", w_mean, Y)
    dY = Y - y_mean[:, None, :]
    dX = X - means[:, None, :]
    P_y = np.einsum("s,bsi,bsj->bij", w_cov, dY, dY) + noise
    P_y = 0.5 * (P_y + np.swapaxes(P_y, -1, -2))
    P_xy = np.einsum("s,bsi,bsj->bij", w_cov, dX, dY)
    return y_mean, P_y, P_xy
