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

from .errors import InvalidConfigError, SingularInnovationError, as_real
from .geometry import TriMesh, points_into_object_frame, points_to_world_frame
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
        sigma_p = as_real(self.sigma_p, "sigma_p", "a number")
        if not (np.isfinite(sigma_p) and sigma_p > 0.0):
            raise InvalidConfigError("sigma_p must be positive and finite")
        object.__setattr__(self, "sigma_p", sigma_p)

    def surface_distances(self, ys: np.ndarray, poses: np.ndarray) -> np.ndarray:
        """Distances from world points ``ys`` (K, 3) to the surface posed at
        each row of ``poses`` (B, 6).  Returns (B, K)."""
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        poses = np.atleast_2d(np.asarray(poses, dtype=float))
        B, K = len(poses), len(ys)
        local = points_into_object_frame(ys, poses).reshape(B * K, 3)
        d, _, _ = self.mesh.closest_points(local)
        return d.reshape(B, K)

    def predict_batch(self, y: np.ndarray, poses: np.ndarray) -> np.ndarray:
        """Nearest surface points to ``y`` for a pose batch, in world frame."""
        poses = np.atleast_2d(np.asarray(poses, dtype=float))
        local = points_into_object_frame(np.asarray(y, dtype=float)[None, :], poses)
        _, pts, _ = self.mesh.closest_points(local.reshape(-1, 3))
        return points_to_world_frame(pts[:, None, :], poses)[:, 0, :]


def log_likelihood_batch(model: MeasurementModel, ys: np.ndarray,
                         poses: np.ndarray) -> np.ndarray:
    """Log likelihoods for measurements (K, 3) under poses (B, 6) -> (B, K)."""
    d = model.surface_distances(ys, poses)
    return -0.5 * (d / model.sigma_p) ** 2


def _solve_gain(S: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """K = Gamma S^-1 for batched symmetric S, with one ridge retry."""
    try:
        Kt = np.linalg.solve(S, np.swapaxes(Gamma, -1, -2))
        if np.isfinite(Kt).all():
            return np.swapaxes(Kt, -1, -2)
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(np.swapaxes(Gamma, -1, -2))
    for i in range(len(S)):
        Si = S[i]
        try:
            out[i] = np.linalg.solve(Si, Gamma[i].T)
            if not np.isfinite(out[i]).all():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            ridge = 1e-12 * max(float(np.trace(Si)) / Si.shape[0], 1e-30)
            try:
                out[i] = np.linalg.solve(Si + ridge * np.eye(Si.shape[0]), Gamma[i].T)
            except np.linalg.LinAlgError as exc:
                raise SingularInnovationError(
                    "innovation covariance is singular after conditioning") from exc
            if not np.isfinite(out[i]).all():
                raise SingularInnovationError(
                    "innovation covariance produced a non-finite gain")
    return np.swapaxes(out, -1, -2)


def ukf_step_batch(means: np.ndarray, covs: np.ndarray, y: np.ndarray,
                   model, Q: np.ndarray, *, R: np.ndarray,
                   sut: unscented.SutParams):
    """One unscented Kalman cycle for a batch of particle Gaussians.

    Parameters
    ----------
    means, covs : (B, 6) and (B, 6, 6) particle Gaussians at time t-1.
    y : (3,) current measurement.
    model : object with ``predict_batch(y, poses)``.
    Q : (6, 6) process noise added in the time update.
    R : (3, 3) measurement noise.
    sut : sigma-point parameters.

    Returns
    -------
    (corrected_means (B, 6), corrected_covs (B, 6, 6))

    Corrected covariances are symmetrized and, when an eigenvalue falls
    below -1e-10, shifted back onto the PSD cone.
    """
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    y = np.asarray(y, dtype=float)
    n = means.shape[1]

    # Time update: identity dynamics, additive process noise.
    P_pred = covs + Q

    y_hat, S, Gamma = unscented.unscented_transform(
        means, P_pred, lambda X: model.predict_batch(y, X), sut, noise=R)

    K = _solve_gain(S, Gamma)                            # (B, n, p)
    innov = y[None, :] - y_hat
    corrected = means + np.einsum("bij,bj->bi", K, innov)
    P_corr = P_pred - np.einsum("bij,bjk,blk->bil", K, S, K)
    P_corr = 0.5 * (P_corr + np.swapaxes(P_corr, -1, -2))

    # PSD repair: shift only when an eigenvalue dips beyond tolerance.
    min_eig = np.linalg.eigvalsh(P_corr)[:, 0]
    shift = np.where(min_eig < -1e-10, -min_eig, 0.0)
    P_corr = P_corr + shift[:, None, None] * np.eye(n)
    return corrected, P_corr
