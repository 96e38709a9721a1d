"""Scaled unscented transformation.

For an n-dimensional Gaussian (mean, cov) the 2n+1 sigma points are::

    X_0 = mean
    X_i = mean + col_i(sqrt((n + k) cov))      i = 1..n
    X_i = mean - col_(i-n)(sqrt((n + k) cov))  i = n+1..2n

with weights::

    W_0^mean = k / (n + k)
    W_0^cov  = k / (n + k) + beta
    W_i^mean = W_i^cov = 1 / (2 (n + k))       i >= 1

This is the scaled transform of Julier (2002) that the unscented particle
filter of van der Merwe et al. (2000) runs, at the paper's ``alpha = 1``,
``k = 2`` and ``beta = 30``.  Its scaling ``lam = alpha^2 (n + k) - n`` is
then ``k`` for every n, and its ``1 - alpha^2 + beta`` is ``beta``, so
``alpha`` drops out of the formulas above.  For a 6-D pose the 13 sigma
points weigh ``W_0^mean = 1/4``, ``W_0^cov = 30.25`` and ``W_i = 1/16``;
``beta = 30`` overweights the central covariance residual.

The matrix square root is the lower Cholesky factor.  A covariance that
Cholesky cannot factor, being semidefinite or, from roundoff, slightly
indefinite, is factored as ``V sqrt(max(lambda, 0))`` from its
eigendecomposition: a square root of its projection onto the PSD cone, the
clip the filter also applies to its sampling scale.  So an indefinite
covariance gets the sigma points of its projection (``-I`` collapses to
the mean), and none is refused.

``unscented_transform`` pushes the sigma points of a batch of Gaussians
through a map ``g`` and returns the weighted output moments; it is the one
place the filter forms them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sigma_points_batch", "unscented_transform"]

_K, _BETA = 2.0, 30.0   # the transform's parameters (alpha = 1)


def _weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance weight vectors of length 2 n + 1."""
    w_mean = np.full(2 * n + 1, 1.0 / (2.0 * (n + _K)))
    w_cov = w_mean.copy()
    w_mean[0] = _K / (n + _K)
    w_cov[0] = _K / (n + _K) + _BETA
    return w_mean, w_cov


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, or ``V sqrt(max(lambda, 0))`` where it fails."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        evals, vecs = np.linalg.eigh(mat)
        return vecs * np.sqrt(np.clip(evals, 0.0, None))


def sigma_points_batch(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Sigma points for a batch of Gaussians.

    ``means`` has shape (B, n), ``covs`` shape (B, n, n); the result is
    (B, 2n+1, n).  Covariances are symmetrized before factoring.  When the
    batched Cholesky fails, each row is factored alone: rows Cholesky can
    factor keep their bits, and the others get the square root of their
    PSD projection.
    """
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    B, n = means.shape
    scaled = (n + _K) * 0.5 * (covs + np.swapaxes(covs, -1, -2))
    try:
        L = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        L = np.stack([_psd_sqrt(m) for m in scaled])
    points = np.empty((B, 2 * n + 1, n))
    points[:, 0, :] = means
    cols = np.swapaxes(L, -1, -2)  # row i is column i of L
    points[:, 1:n + 1, :] = means[:, None, :] + cols
    points[:, n + 1:, :] = means[:, None, :] - cols
    return points


def unscented_transform(means: np.ndarray, covs: np.ndarray, g):
    """Output moments of ``g`` for a batch of Gaussians.

    ``means`` is (B, n) and ``covs`` (B, n, n); ``g`` maps an (M, n) stack
    of inputs to (M, p) outputs.  Returns ``(y_mean, P_y, P_xy)`` of shapes
    (B, p), (B, p, p) and (B, n, p).  ``P_y`` is symmetrized; ``P_xy`` is
    taken about ``means``.  An indefinite covariance is taken as its PSD
    projection, as in `sigma_points_batch`.
    """
    means = np.asarray(means, dtype=float)
    X = sigma_points_batch(means, covs)          # (B, S, n)
    B, S_count, n = X.shape
    w_mean, w_cov = _weights(n)

    Y = g(X.reshape(B * S_count, n)).reshape(B, S_count, -1)
    y_mean = np.einsum("s,bsp->bp", w_mean, Y)
    dY = Y - y_mean[:, None, :]
    dX = X - means[:, None, :]
    P_y = np.einsum("s,bsi,bsj->bij", w_cov, dY, dY)
    P_y = 0.5 * (P_y + np.swapaxes(P_y, -1, -2))
    P_xy = np.einsum("s,bsi,bsj->bij", w_cov, dX, dY)
    return y_mean, P_y, P_xy
