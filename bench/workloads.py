"""Workload definitions: meshes, filter profiles and seeded contact trials.

Every workload is a closed loop with one client: a probe touches the object,
waits for the pose estimate, then touches again.  The program under test
receives only the generated contacts and the mesh; the true pose is used
afterwards, for rating.

Seeding.  Trial ``i`` uses scenario seed ``s + 100 + i`` and filter seed
``s + i``.  For the first ``reference_trials`` trials ``s`` is 0, so those
trials are the acceptance scenario's seeds on every run: the quality metrics
and the estimate digest are computed on them and repeat exactly for a given
program.  For later trials ``s`` is the ``--seed`` argument, so the default
seed 0 reproduces the acceptance seeds throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from meshloc import (
    FilterConfig,
    Pose,
    ScenarioSpec,
    TriMesh,
    euler_from_matrix,
    load_obj,
    rotation_matrices,
    sample_contacts,
)

ROOT = Path(__file__).resolve().parent.parent

BOX_SIZE = (0.1, 0.3, 0.2)
TRUE_POSE = np.array([0.02, -0.01, 0.03, 0.4, -0.25, 0.6])
NOISE_SIGMA = 5e-4

# Trials generated at set-up; the timed loop stops early if it runs out.
TRIAL_POOL = 48


@dataclass(frozen=True)
class Trial:
    index: int
    measurements: np.ndarray     # (L, 3) world-frame contacts
    config: FilterConfig


@dataclass(frozen=True)
class Setup:
    """Everything a workload needs before its first timed contact."""

    mesh: TriMesh
    model: object
    trials: list
    truth: Pose


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json records why each was chosen."""

    name: str
    build_mesh: Callable[[], TriMesh]
    profile: str                 # YAML profile under configs/
    particles: int | None        # overrides the profile's population
    contacts: int
    face_subset: tuple | None    # None: contacts on all faces
    reference_trials: int
    # Tail percentile reported; the timed loop runs until at least ten
    # contact samples lie beyond it.
    tail_percentile: float

    @property
    def all_faces(self) -> bool:
        """Contacts on all faces determine the pose, so such a workload
        starts from an informative prior and is rated by the truth test.
        Contacts on one face underdetermine it: an uninformative prior and
        the index test."""
        return self.face_subset is None

    def setup(self, seed: int) -> Setup:
        mesh = self.build_mesh()
        with open(ROOT / "configs" / self.profile, encoding="utf-8") as fh:
            profile = FilterConfig.from_mapping(yaml.safe_load(fh))
        if self.particles is not None:
            profile = replace(profile, n_particles=self.particles)
        truth = Pose.from_array(TRUE_POSE)
        trials = [self._trial(mesh, profile, truth, i, seed)
                  for i in range(TRIAL_POOL)]
        return Setup(mesh=mesh, model=profile.model_for(mesh), trials=trials,
                     truth=truth)

    def _trial(self, mesh, profile, truth, i, seed) -> Trial:
        base = 0 if i < self.reference_trials else seed
        spec = ScenarioSpec(mesh_path=None, true_pose=truth,
                            n_measurements=self.contacts,
                            noise_sigma=NOISE_SIGMA,
                            face_subset=self.face_subset, seed=base + 100 + i)
        measurements, _ = sample_contacts(spec, mesh)
        config = replace(profile, seed=base + i, n_workers=1)
        if self.all_faces:
            config = replace(config, **_informative_prior(base + 100 + i))
        config.validate()
        return Trial(index=i, measurements=measurements, config=config)


def _informative_prior(seed: int) -> dict:
    """Prior 1 cm and 5 degrees off the truth, in seeded directions."""
    rng = np.random.default_rng([seed, 1])
    shift, axis = rng.standard_normal((2, 3))
    shift *= 0.01 / np.linalg.norm(shift)
    axis /= np.linalg.norm(axis)
    angle = np.deg2rad(5.0)
    skew = np.array([[0.0, -axis[2], axis[1]],
                     [axis[2], 0.0, -axis[0]],
                     [-axis[1], axis[0], 0.0]])
    offset = np.eye(3) + np.sin(angle) * skew + (1.0 - np.cos(angle)) * skew @ skew
    rotation = rotation_matrices(TRUE_POSE) @ offset
    mean = np.concatenate([TRUE_POSE[:3] + shift, euler_from_matrix(rotation)])
    cov = np.diag([0.01 ** 2] * 3 + [angle ** 2] * 3)
    return {"prior_mean": mean, "prior_cov": cov}


def bundled_box() -> TriMesh:
    return load_obj(ROOT / "assets" / "box_0.1x0.3x0.2.obj")


def subdivided_box(cuts: int = 9) -> TriMesh:
    """Closed box mesh with each face cut into a ``cuts`` x ``cuts`` grid.

    Each grid cell is two triangles, so the mesh has ``12 * cuts**2``
    faces (972 for the default).  Vertices on shared edges are merged.
    """
    half = np.asarray(BOX_SIZE) / 2.0
    grid = np.linspace(-1.0, 1.0, cuts + 1)
    u, v = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    cell = np.arange((cuts + 1) ** 2).reshape(cuts + 1, cuts + 1)
    c00, c10, c11, c01 = cell[:-1, :-1], cell[1:, :-1], cell[1:, 1:], cell[:-1, 1:]
    quads = np.concatenate([np.stack([c00, c10, c11], -1).reshape(-1, 3),
                            np.stack([c00, c11, c01], -1).reshape(-1, 3)])
    verts, faces = [], []
    for axis in range(3):
        a, b = [d for d in range(3) if d != axis]
        for sign in (-1.0, 1.0):
            side = np.empty((len(u), 3))
            side[:, axis], side[:, a], side[:, b] = sign, u, v
            faces.append(quads + len(verts) * len(u))
            verts.append(side * half)
    merged, inverse = np.unique(np.round(np.concatenate(verts), 12), axis=0,
                                return_inverse=True)
    return TriMesh(merged, inverse.reshape(-1)[np.concatenate(faces)])


WORKLOADS = {
    # The acceptance scenario: step and extraction each about half, and
    # geometry about half of both.
    "box-desk": Workload(
        name="box-desk",
        build_mesh=bundled_box, profile="simulation.yaml", particles=None,
        contacts=15, face_subset=(2, 3), reference_trials=4, tail_percentile=90.0,
    ),
    # Same contacts, 1200 particles: the O(N^2) mixture density is the
    # largest layer.
    "box-robot": Workload(
        name="box-robot",
        build_mesh=bundled_box, profile="robot.yaml", particles=None,
        contacts=15, face_subset=(2, 3), reference_trials=2, tail_percentile=80.0,
    ),
    # About 1k faces and an informative prior: closest-point queries near
    # the surface dominate.  64 particles and 10 contacts keep a contact
    # under a second, so a run holds enough contacts for its tail.
    "scan-refine": Workload(
        name="scan-refine",
        build_mesh=subdivided_box, profile="simulation.yaml", particles=64,
        contacts=10, face_subset=None, reference_trials=2, tail_percentile=75.0,
    ),
}
