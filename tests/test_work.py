"""The closest-point work of a filter run, counted.

A run over L contacts with N particles and window m makes exactly::

    sum over t = 1..L of (13 u(t-1) + 2 N w(t) + L)

closest-point queries, where ``u(t-1)`` is the number of distinct parents
entering step t (``u(0) = N``) and ``w(t) = min(t, m)``.  Step t's UKF
correction queries the 13 = 2*6 + 1 sigma points of each distinct parent;
the step's window likelihoods and the MAP readout each rate N candidates
against w(t) contacts; the performance index rates the estimate against
all L contacts.  Query counts do not drift with the host, so a change
that adds or removes work shows here as a broken equality: such a change
restates the formula in the same diff.

Inside a BVH leaf, face bounds keep the triangle kernel off most faces.
The pairs it runs are counted too: a leaf pass that ran the whole row
again would still pass every bitwise test.
"""

import numpy as np
import pytest

from meshloc import FilterConfig, Pose, ScenarioSpec, TriMesh, box_mesh, mupf, sample_contacts
from meshloc import geometry, ukf

BOX = box_mesh(0.1, 0.3, 0.2)
TRUTH = Pose.from_array(np.array([0.02, -0.01, 0.03, 0.4, -0.25, 0.6]))
N, L = 50, 8


def _split(mesh: TriMesh) -> TriMesh:
    """Each face cut into four at its edge midpoints."""
    a, b, c = (mesh.vertices[mesh.faces[:, i]] for i in range(3))
    ab, bc, ca = (a + b) / 2.0, (b + c) / 2.0, (c + a) / 2.0
    tris = np.concatenate([np.stack(t, axis=1) for t in
                           ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))])
    return TriMesh(tris.reshape(-1, 3), np.arange(3 * len(tris)).reshape(-1, 3))


SPLIT_BOX = _split(_split(BOX))   # 192 faces, more than one BVH leaf


@pytest.mark.parametrize("mesh, memory, delay", [
    (BOX, 1, 0), (BOX, 1, 2), (BOX, 4, 0), (BOX, 4, 2), (SPLIT_BOX, 4, 2),
], ids=["box-m1-d0", "box-m1-d2", "box-m4-d0", "box-m4-d2", "split-box-m4-d2"])
def test_queries_follow_the_work_formula(monkeypatch, mesh, memory, delay):
    spec = ScenarioSpec(mesh_path=None, true_pose=TRUTH, n_measurements=L,
                        noise_sigma=5e-4, seed=100)
    measurements, _ = sample_contacts(spec, mesh)
    config = FilterConfig(n_particles=N, memory=memory, resampling_delay=delay,
                          sigma_p=1e-3, seed=0,
                          prior_mean=TRUTH.to_array(), prior_cov=np.diag([0.01] * 3 + [0.1] * 3))

    queries, ukf_rows, unique = [], [], [N]
    closest_points, ukf_step_batch, step = (
        geometry.TriMesh.closest_points, ukf.ukf_step_batch, mupf.step)

    def counted_closest_points(self, Q):
        queries.append(len(Q))
        return closest_points(self, Q)

    def counted_ukf(means, *args, **kwargs):
        ukf_rows.append(len(means))
        return ukf_step_batch(means, *args, **kwargs)

    def recorded_step(*args, **kwargs):
        new_state, diagnostics = step(*args, **kwargs)
        unique.append(diagnostics["unique_parents"])
        return new_state, diagnostics

    monkeypatch.setattr(geometry.TriMesh, "closest_points", counted_closest_points)
    for module in (ukf, mupf):
        monkeypatch.setattr(module, "ukf_step_batch", counted_ukf)
    monkeypatch.setattr(mupf, "step", recorded_step)

    mupf.run(measurements, config.model_for(mesh), config)

    parents_in = unique[:L]                       # u(0) .. u(L-1)
    assert ukf_rows == parents_in
    want = sum(13 * u + 2 * N * min(t, memory) + L
               for t, u in enumerate(parents_in, start=1))
    assert sum(queries) == want
    # Resampling after the delay leaves fewer distinct parents, so the
    # formula's u term is exercised, not only u = N.
    assert min(parents_in[delay + 1:]) < N


def test_box_queries_run_the_kernel_on_few_faces(monkeypatch):
    pairs = []
    kernel = geometry.closest_point_on_triangles

    def counted_kernel(q, a, b, c):
        points, d2 = kernel(q, a, b, c)
        pairs.append(d2.size)
        return points, d2

    monkeypatch.setattr(geometry, "closest_point_on_triangles", counted_kernel)
    Q = np.random.default_rng(53).uniform(-0.4, 0.4, size=(2000, 3))
    BOX.closest_points(Q)
    # The two faces of least bound, and then only faces whose bound does
    # not exceed the best distance: about 4.5 of the box's 12 faces for
    # queries this far out, 2 near the surface.
    assert 2 <= sum(pairs) / len(Q) < 6
