"""Independent reference implementations used to check the package.

Everything here is deliberately written with different algorithms than the
library: candidate-enumeration closest points instead of region
classification, closed-form Kalman algebra instead of sigma points,
quaternions instead of rotation-matrix traces.  Tests compare library
output against these.

There are three exceptions, all compared bitwise.  :func:`upf_step` is the
plain unscented particle filter that the memory filter must reduce to.  It
runs its own proposal pass, one ``ukf_step_batch`` row for every particle
where ``mupf.step`` corrects each distinct parent once, and its own draw;
it rates with the filter's factorization, Gaussian log-density, likelihood,
normalization and resampling, and spells out the memoryless recursion on
its own instead of calling ``mupf.step``; :func:`upf_proposal_logpdf`
rates the same candidates by :func:`gaussian_logpdf` instead, within a
tolerance.
:func:`closest_points_exhaustive` runs :func:`triangle_kernel`, a frozen
copy of the library's triangle kernel, over every face, with no tree and no
bounds, so that ``TriMesh.closest_points`` can be held to the same argmin
bit for bit, and a change to the library's kernel shows as a mismatch.
:func:`map_readout` is the dense O(N^2) mixture density that
``mupf.extract_pose`` evaluated at every candidate before any pruning,
frozen so a faster readout can be held to its argmax and maximum bit for
bit.
"""

from __future__ import annotations

import numpy as np

from meshloc import mupf
from meshloc.ukf import log_likelihood_batch, ukf_step_batch

# Pairwise point-triangle evaluations per chunk; bounds peak memory.
_PAIR_BUDGET = 4_000_000


def triangle_kernel(q, a, b, c):
    """Closest points on triangles ``(a, b, c)`` to query points ``q``: a
    frozen copy of ``geometry.closest_point_on_triangles``.

    All inputs broadcast against each other with a trailing axis of 3.
    Returns ``(points, d2)`` where ``d2`` is the squared distance computed
    from the returned point, so ``sqrt(d2) == |q - point|`` exactly.

    Uses the classic closest-feature classification (vertex, edge, or face
    region of the barycentric plane) and is exact for non-degenerate
    triangles in floating point.
    """
    q = np.asarray(q, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)

    ab = b - a
    ac = c - a
    ap = q - a
    d1 = np.einsum("...i,...i->...", ab, ap)
    d2_ = np.einsum("...i,...i->...", ac, ap)
    bp = q - b
    d3 = np.einsum("...i,...i->...", ab, bp)
    d4 = np.einsum("...i,...i->...", ac, bp)
    cp = q - c
    d5 = np.einsum("...i,...i->...", ab, cp)
    d6 = np.einsum("...i,...i->...", ac, cp)

    vc = d1 * d4 - d3 * d2_
    vb = d5 * d2_ - d1 * d6
    va = d3 * d6 - d5 * d4

    with np.errstate(divide="ignore", invalid="ignore"):
        denom = va + vb + vc
        denom = np.where(denom != 0.0, denom, 1.0)
        v_in = vb / denom
        w_in = vc / denom
        p = a + ab * v_in[..., None] + ac * w_in[..., None]

        den_ab = d1 - d3
        t_ab = d1 / np.where(den_ab != 0.0, den_ab, 1.0)
        den_ac = d2_ - d6
        t_ac = d2_ / np.where(den_ac != 0.0, den_ac, 1.0)
        den_bc = (d4 - d3) + (d5 - d6)
        t_bc = (d4 - d3) / np.where(den_bc != 0.0, den_bc, 1.0)

    # Overlay regions in reverse priority so the first matching region in
    # the scalar algorithm (A, B, AB, C, AC, BC, interior) wins.
    p = np.where(((va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0))[..., None],
                 b + t_bc[..., None] * (c - b), p)
    p = np.where(((vb <= 0.0) & (d2_ >= 0.0) & (d6 <= 0.0))[..., None],
                 a + t_ac[..., None] * ac, p)
    p = np.where(((d6 >= 0.0) & (d5 <= d6))[..., None], np.broadcast_to(c, p.shape), p)
    p = np.where(((vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0))[..., None],
                 a + t_ab[..., None] * ab, p)
    p = np.where(((d3 >= 0.0) & (d4 <= d3))[..., None], np.broadcast_to(b, p.shape), p)
    p = np.where(((d1 <= 0.0) & (d2_ <= 0.0))[..., None], np.broadcast_to(a, p.shape), p)

    diff = q - p
    d2_out = np.einsum("...i,...i->...", diff, diff)
    return p, d2_out


def closest_points_exhaustive(queries: np.ndarray, mesh):
    """:func:`triangle_kernel` against every face of ``mesh``.

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
        pts, d2 = triangle_kernel(Q[s:e, None, :], a, b, c)
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


def _upf_proposal(state, y, model, config):
    """The proposal of van der Merwe et al. for step ``state.t + 1``: one
    UKF correction per particle, with no distinct-parent dedupe, then a
    draw from each corrected Gaussian.  Returns the step's generator, its
    first draw taken, the corrected means and covariances, their density
    factors and the candidates."""
    rng = mupf._rng_for_step(config.seed, state.t + 1)
    z = rng.standard_normal((state.n_particles, 6))
    means, covs = ukf_step_batch(state.sampled[state.parents], state.covs[state.parents],
                                 y, model, config.process_noise,
                                 R=model.sigma_p ** 2 * np.eye(3))
    scale, vecs, evals_density = mupf._factor_covariances(covs)
    sampled = means + np.einsum("bij,bj->bi", scale, z)
    return rng, means, covs, vecs, evals_density, sampled


def upf_proposal_logpdf(state, y, model, config):
    """``log N(xhat; xbar, P)`` of each candidate that step ``state.t + 1``
    draws from ``state`` for contact ``y``, by :func:`gaussian_logpdf` from
    the full corrected covariance: neither the filter's eigen-factors nor
    its eigenvalue floor.  UKF rows are independent, so the candidates are
    those of ``mupf.step`` as well as of :func:`upf_step`."""
    y = np.asarray(y, dtype=float).reshape(3)
    _, means, covs, _, _, sampled = _upf_proposal(state, y, model, config)
    return np.array([gaussian_logpdf(x, m, P) for x, m, P in zip(sampled, means, covs)])


def upf_step(state, y, model, config):
    """One step of the plain unscented particle filter (van der Merwe et
    al. 2000, "The unscented particle filter").

    Corrects every particle with its own UKF row (contact noise
    ``sigma_p^2 I``), rates only the newest measurement, includes the
    random-walk transition density in the weight, and resamples on every
    step.  With ``memory=1``, ``resampling_delay=0`` and
    ``transition_density_in_weights`` enabled, ``mupf.step`` must
    reproduce this recursion bit for bit.
    """
    y = np.asarray(y, dtype=float).reshape(3)
    n = state.n_particles
    t = state.t + 1
    window = y[None]
    rng, means, ukf_covs, vecs, evals_density, sampled = _upf_proposal(
        state, y, model, config)
    log_q = mupf._log_gauss_factored(sampled - means, vecs, evals_density)
    ll = log_likelihood_batch(model, window, sampled)
    lw = np.log(1.0 / n) + ll.sum(axis=1) - log_q
    _, q_vecs, q_evals = mupf._factor_covariances(config.process_noise)
    lw = lw + mupf._log_gauss_factored(sampled - state.sampled[state.parents],
                                       q_vecs, q_evals)
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
