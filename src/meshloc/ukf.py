"""Proximity measurement model and per-particle unscented Kalman step.

The measurement model treats a contact point ``y`` as a noisy observation
of the object's surface: the predicted measurement for a pose ``x`` is the
point of the posed surface nearest to ``y``, and the likelihood decays with
the squared surface distance::

    log l(y | x) = -d(y, x)^2 / (2 sigma_p^2)

(the Gaussian normalization constant is dropped; it cancels when weights
are normalized).  The predicted point depends on ``y`` itself, which makes
the measurement map mildly state-and-measurement dependent; that is
intentional and is what the unscented step linearizes around.

``ukf_step_batch`` performs one Kalman cycle per particle under identity motion
dynamics: time update adds the process noise ``Q`` to the covariance, the
measurement prediction pushes sigma points through the nearest-point map,
and the correction uses the standard gain ``K = Gamma S^-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshlocError, as_scale
from .geometry import TriMesh
from . import unscented

__all__ = [
    "MeasurementModel",
    "log_likelihood_batch",
    "ukf_step_batch",
]


@dataclass(frozen=True)
class MeasurementModel:
    """Contact-point model: a mesh plus the likelihood scale ``sigma_p``.

    ``sigma_p`` is the standard deviation, in meters, of the surface
    proximity likelihood, stored as a float.
    """

    mesh: TriMesh
    sigma_p: float

    def __post_init__(self):
        object.__setattr__(self, "sigma_p", as_scale(self.sigma_p, "sigma_p"))

    def surface_distances(self, ys: np.ndarray, poses: np.ndarray) -> np.ndarray:
        """Distances from world points ``ys`` (K, 3) to the surface posed at
        each row of ``poses`` (B, 6).  Returns (B, K)."""
        return self.mesh.closest_points_posed(ys, poses)[0]

    def predict_batch(self, y: np.ndarray, poses: np.ndarray) -> np.ndarray:
        """Nearest surface points to ``y`` for a pose batch, in world frame."""
        return self.mesh.closest_points_posed(y, poses)[1][:, 0, :]


def log_likelihood_batch(model: MeasurementModel, ys: np.ndarray,
                         poses: np.ndarray) -> np.ndarray:
    """Log likelihoods for measurements (K, 3) under poses (B, 6) -> (B, K)."""
    d = model.surface_distances(ys, poses)
    return -0.5 * (d / model.sigma_p) ** 2


def ukf_step_batch(means: np.ndarray, covs: np.ndarray, y: np.ndarray,
                   model, Q: np.ndarray, *, R: np.ndarray):
    """One unscented Kalman cycle for a batch of particle Gaussians.

    Parameters
    ----------
    means, covs : (B, 6) and (B, 6, 6) particle Gaussians at time t-1.
    y : (3,) current measurement.
    model : object with ``predict_batch(y, poses)``.
    Q : (6, 6) process noise added in the time update.
    R : (3, 3) measurement noise, positive definite.

    Returns
    -------
    (corrected_means (B, 6), corrected_covs (B, 6, 6))

    The sigma points of a predicted covariance ``covs + Q`` that is
    indefinite are those of its PSD projection (see
    `unscented.sigma_points_batch`).  The gain is one batched solve of
    ``S K^T = Gamma^T``.  An innovation
    covariance ``S`` that is not finite or that it cannot invert, or a gain
    that is not finite, raises `MeshlocError`.  Corrected covariances are
    symmetrized and returned as computed: roundoff may leave one slightly
    indefinite, and the next step's sigma points factor its PSD projection.
    """
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    y = np.asarray(y, dtype=float)

    # Time update: identity dynamics, additive process noise.
    P_pred = covs + Q

    y_hat, S, Gamma = unscented.unscented_transform(
        means, P_pred, lambda X: model.predict_batch(y, X), noise=R)

    if not np.isfinite(S).all():
        raise MeshlocError("innovation covariance is not finite")
    try:
        K = np.swapaxes(np.linalg.solve(S, np.swapaxes(Gamma, -1, -2)), -1, -2)  # (B, n, p)
    except np.linalg.LinAlgError as exc:
        raise MeshlocError("innovation covariance is singular") from exc
    if not np.isfinite(K).all():
        raise MeshlocError("innovation covariance gives a non-finite gain")
    innov = y[None, :] - y_hat
    corrected = means + np.einsum("bij,bj->bi", K, innov)
    P_corr = P_pred - np.einsum("bij,bjk,blk->bil", K, S, K)
    return corrected, 0.5 * (P_corr + np.swapaxes(P_corr, -1, -2))
