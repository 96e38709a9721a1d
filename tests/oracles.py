"""Independent reference implementations used to check the package.

Everything here is deliberately written with different algorithms than the
library: candidate-enumeration closest points instead of region
classification, closed-form Kalman algebra instead of sigma points,
quaternions instead of rotation-matrix traces.  Tests compare library
output against these.

There are three exceptions, all compared bitwise.  :func:`upf_step` is the
plain unscented particle filter that the memory filter must reduce to.  It
reuses the filter's numerical building blocks and spells out the memoryless
recursion on its own instead of calling ``mupf.step``.
:func:`closest_points_exhaustive` runs the library's triangle kernel over
every face, with no tree, so that ``TriMesh.closest_points`` can be held to
the same argmin bit for bit.  :func:`map_readout` is the dense O(N^2)
mixture density that ``mupf.extract_pose`` evaluated at every candidate
before any pruning, frozen so a faster readout can be held to its argmax
and maximum bit for bit.
"""

from __future__ import annotations

import numpy as np

from meshloc import mupf
from meshloc.geometry import closest_point_on_triangles
from meshloc.ukf import log_likelihood_batch

# Pairwise point-triangle evaluations per chunk; bounds peak memory.
_PAIR_BUDGET = 4_000_000


def closest_points_exhaustive(queries: np.ndarray, mesh):
    """``closest_point_on_triangles`` against every face of ``mesh``.

    Returns (distances (M,), points (M, 3), face_indices (M,)); ties on
    distance resolve to the lowest face index (``argmin`` order).
    """
    Q = np.asarray(queries, dtype=float)
    a, b, c = (mesh.vertices[mesh.faces[:, k]][None, :, :] for k in range(3))
    M = len(Q)
    chunk = max(1, _PAIR_BUDGET // mesh.n_faces)
    dists = np.empty(M)
    points = np.empty((M, 3))
    faces = np.empty(M, dtype=np.int64)
    for s in range(0, M, chunk):
        e = min(M, s + chunk)
        pts, d2 = closest_point_on_triangles(Q[s:e, None, :], a, b, c)
        j = np.argmin(d2, axis=1)  # first occurrence: lowest face index
        rows = np.arange(e - s)
        dists[s:e] = np.sqrt(d2[rows, j])
        points[s:e] = pts[rows, j]
        faces[s:e] = j
    return dists, points, faces


def closest_point_brute(queries: np.ndarray, vertices: np.ndarray,
                        faces: np.ndarray):
    """Exhaustive per-face closest points by candidate enumeration.

    For each (query, face) pair the candidates are the orthogonal projection
    onto the face plane (when its barycentric coordinates are all
    non-negative) and the clamped projections onto the three edge segments.
    No spatial acceleration structure is involved.

    Returns (distances (M,), points (M, 3), face_indices (M,)); ties on
    distance resolve to the lowest face index.
    """
    queries = np.asarray(queries, dtype=float)
    M = len(queries)
    best_d2 = np.full(M, np.inf)
    best_pt = np.zeros((M, 3))
    best_face = np.full(M, -1, dtype=np.int64)

    for fi, face in enumerate(faces):
        a, b, c = vertices[face[0]], vertices[face[1]], vertices[face[2]]
        cand = _face_candidates(queries, a, b, c)  # (M, 4, 3)
        diff = queries[:, None, :] - cand
        d2 = np.einsum("mki,mki->mk", diff, diff)
        k = np.argmin(d2, axis=1)
        rows = np.arange(M)
        face_d2 = d2[rows, k]
        face_pt = cand[rows, k]
        better = face_d2 < best_d2  # strict: keeps lowest face index on ties
        best_d2 = np.where(better, face_d2, best_d2)
        best_pt = np.where(better[:, None], face_pt, best_pt)
        best_face = np.where(better, fi, best_face)

    return np.sqrt(best_d2), best_pt, best_face


def _face_candidates(q: np.ndarray, a, b, c) -> np.ndarray:
    ab = b - a
    ac = c - a
    n = np.cross(ab, ac)
    nn = float(n @ n)

    # Plane projection with barycentric validity check.
    dist_plane = (q - a) @ n / nn
    proj = q - dist_plane[:, None] * n
    v0 = ab
    v1 = ac
    v2 = proj - a
    d00 = float(v0 @ v0)
    d01 = float(v0 @ v1)
    d11 = float(v1 @ v1)
    d20 = v2 @ v0
    d21 = v2 @ v1
    den = d00 * d11 - d01 * d01
    bv = (d11 * d20 - d01 * d21) / den
    bw = (d00 * d21 - d01 * d20) / den
    inside = (bv >= 0.0) & (bw >= 0.0) & (bv + bw <= 1.0)
    # Invalid plane projections are replaced by a vertex so they never win.
    plane_cand = np.where(inside[:, None], proj, a[None, :])

    edges = [(a, b), (b, c), (c, a)]
    cands = [plane_cand]
    for p0, p1 in edges:
        d = p1 - p0
        t = np.clip((q - p0) @ d / float(d @ d), 0.0, 1.0)
        cands.append(p0 + t[:, None] * d)
    return np.stack(cands, axis=1)


def kalman_update(x, P, y, A, b, R, Q):
    """Closed-form Kalman step for identity dynamics and affine measurement.

    Time update adds Q; measurement model is y = A x + b + noise(R).
    Returns (x_corrected, P_corrected).
    """
    x = np.asarray(x, dtype=float)
    P_pred = np.asarray(P, dtype=float) + Q
    yhat = A @ x + b
    S = A @ P_pred @ A.T + R
    K = P_pred @ A.T @ np.linalg.inv(S)
    x_new = x + K @ (np.asarray(y, dtype=float) - yhat)
    P_new = P_pred - K @ S @ K.T
    return x_new, P_new


def affine_transform_moments(mean, cov, A, b):
    """Exact moments of an affine map of a Gaussian."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return A @ mean + b, A @ cov @ A.T, cov @ A.T


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) from a rotation matrix (Shepperd)."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(R)))
        if i == 0:
            s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
            q = np.array([(R[2, 1] - R[1, 2]) / s, 0.25 * s,
                          (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s])
        elif i == 1:
            s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
            q = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s,
                          0.25 * s, (R[1, 2] + R[2, 1]) / s])
        else:
            s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
            q = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
                          (R[1, 2] + R[2, 1]) / s, 0.25 * s])
    return q / np.linalg.norm(q)


def quat_angle_between(R1: np.ndarray, R2: np.ndarray) -> float:
    """Geodesic angle between two rotations via quaternions."""
    q1 = quat_from_matrix(R1)
    q2 = quat_from_matrix(R2)
    dot = abs(float(q1 @ q2))
    return 2.0 * np.arccos(min(dot, 1.0))


def gaussian_logpdf(x, mean, cov) -> float:
    """Plain multivariate normal log-density (no eigenvalue flooring)."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    k = len(mean)
    sign, logdet = np.linalg.slogdet(cov)
    diff = x - mean
    maha = float(diff @ np.linalg.solve(cov, diff))
    return -0.5 * (k * np.log(2.0 * np.pi) + logdet + maha)


def upf_step(state, y, model, config):
    """One step of the plain unscented particle filter (van der Merwe et
    al. 2000, "The unscented particle filter").

    Rates only the newest measurement, includes the random-walk transition
    density in the weight, and resamples on every step.  With ``memory=1``,
    ``resampling_delay=0`` and ``transition_density_in_weights`` enabled,
    ``mupf.step`` must reproduce this recursion bit for bit.
    """
    y = np.asarray(y, dtype=float).reshape(3)
    n = state.n_particles
    t = state.t + 1
    rng = mupf._rng_for_step(config.seed, t)
    window = y[None]

    z = rng.standard_normal((n, 6))
    ukf_covs, vecs, evals_density, sampled, log_q, ll = \
        mupf._propose(state, window, model, config, z)
    lw = np.log(1.0 / n) + ll.sum(axis=1) - log_q
    q_vecs, _, q_evals = mupf._factor_covariances(config.process_noise[None])
    lw = lw + mupf._log_gauss_factored(sampled - state.sampled[state.parents],
                                       np.broadcast_to(q_vecs, (n, 6, 6)),
                                       np.broadcast_to(q_evals, (n, 6)))
    weights_t, log_weights_t, degenerate = mupf._normalize_log_weights(lw)

    idx = mupf._resample_indices(rng, weights_t)
    diagnostics = {
        "t": t,
        "window": range(t, t + 1),
        "ess": float(1.0 / np.sum(weights_t ** 2)),
        "resampled": True,
        "degenerate": bool(degenerate),
        "unique_parents": int(len(np.unique(idx))),
    }
    new_state = mupf.FilterState(
        sampled=sampled, covs=ukf_covs, parents=idx, t=t, window=window,
        cov_vecs=vecs, cov_evals=evals_density, log_proposal=log_q,
        log_weights=log_weights_t,
    )
    return new_state, diagnostics


_MAP_CHUNK = 256   # candidate columns per block, as the readout had them


def map_readout(state, model, config):
    """Index and log density of the extraction MAP candidate, densely.

    Re-rates the step's candidates with exponents ``m - t + k - 1`` on
    the windowed likelihoods, then evaluates the weighted Gaussian mixture
    of all N components at every candidate.  Returns ``(best, log_density
    at best)``.
    """
    t, m = state.t, config.memory
    exps = np.asarray([float(m - t + k - 1)
                       for k in range(t - len(state.window) + 1, t + 1)])
    ll = log_likelihood_batch(model, state.window, state.sampled)
    lw = state.log_weights + ll @ exps - state.log_proposal
    _, log_wbar, _ = mupf._normalize_log_weights(lw)

    sampled, vecs, evals = state.sampled, state.cov_vecs, state.cov_evals
    n = len(sampled)
    logdet = np.log(evals).sum(axis=1)
    inv_evals = 1.0 / evals
    log_density = np.empty(n)
    for lo in range(0, n, _MAP_CHUNK):
        hi = min(n, lo + _MAP_CHUNK)
        diff = sampled[None, lo:hi, :] - sampled[:, None, :]
        u = np.einsum("iab,ija->ijb", vecs, diff)
        maha = np.einsum("ijb,ib->ij", u * u, inv_evals)
        logcomp = -0.5 * (6.0 * np.log(2.0 * np.pi) + logdet[:, None] + maha)
        mix = log_wbar[:, None] + logcomp
        top = mix.max(axis=0)
        log_density[lo:hi] = top + np.log(np.exp(mix - top[None, :]).sum(axis=0))
    best = int(np.argmax(log_density))
    return best, float(log_density[best])
