"""Synthetic contact generation: sample surface points on a posed mesh.

Contacts are drawn by picking a face uniformly from a configured subset,
sampling a point uniformly inside that triangle (square-root trick),
transforming into the world frame by the true pose, and adding isotropic
Gaussian noise.  Restricting the subset is what makes the sampling
non-uniform over the whole surface: it mimics a probe that only ever
touches the reachable sides of an object.

Determinism: one generator per scenario seed, consumed in a fixed order
(face picks, then barycentric pairs, then noise), so the pre-noise
contacts for a given seed are identical across noise levels.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidFaceSubsetError
from .geometry import Pose, TriMesh

__all__ = [
    "ScenarioSpec",
    "sample_contacts",
    "write_measurements_csv",
    "read_measurements_csv",
    "write_ground_truth_json",
    "read_ground_truth_json",
]

MEASUREMENT_HEADER = ("x", "y", "z")
GROUND_TRUTH_SCHEMA = "meshloc-ground-truth-1"


@dataclass(frozen=True)
class ScenarioSpec:
    """One synthetic measurement scenario."""

    mesh_path: str | None
    true_pose: Pose
    n_measurements: int
    noise_sigma: float = 0.0
    face_subset: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n_measurements, (int, np.integer))
                and self.n_measurements >= 1):
            raise InvalidConfigError("n_measurements must be a positive integer")
        if not np.isfinite(self.true_pose.to_array()).all():
            raise InvalidConfigError("true_pose must be finite")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise InvalidConfigError("noise_sigma must be finite and non-negative")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise InvalidConfigError("seed must be a non-negative integer")
        if self.face_subset is not None:
            object.__setattr__(self, "face_subset",
                               tuple(int(i) for i in self.face_subset))

    def resolved_subset(self, mesh: TriMesh) -> np.ndarray:
        """Validated face indices to sample from (all faces by default)."""
        if self.face_subset is None:
            return np.arange(mesh.n_faces)
        subset = np.asarray(self.face_subset, dtype=int)
        if subset.size == 0:
            raise InvalidFaceSubsetError("face_subset must not be empty")
        if len(np.unique(subset)) != subset.size:
            raise InvalidFaceSubsetError("face_subset contains duplicates")
        if subset.min() < 0 or subset.max() >= mesh.n_faces:
            raise InvalidFaceSubsetError(
                f"face indices must lie in [0, {mesh.n_faces}), "
                f"got range [{subset.min()}, {subset.max()}]")
        return subset

    def to_dict(self) -> dict:
        return {
            "mesh_path": self.mesh_path,
            "true_pose": self.true_pose.to_array().tolist(),
            "n_measurements": int(self.n_measurements),
            "noise_sigma": float(self.noise_sigma),
            "face_subset": (None if self.face_subset is None
                            else [int(i) for i in self.face_subset]),
            "seed": int(self.seed),
        }


def sample_contacts(spec: ScenarioSpec, mesh: TriMesh):
    """Generate noisy world-frame contacts plus their pre-noise ground truth.

    Returns ``(measurements, contacts)``, both (L, 3).  ``contacts`` lie
    exactly on the posed surface; ``measurements`` add world-frame
    isotropic Gaussian noise of standard deviation ``spec.noise_sigma``.
    """
    subset = spec.resolved_subset(mesh)
    n = spec.n_measurements
    rng = np.random.default_rng(spec.seed)

    picks = subset[rng.integers(0, len(subset), size=n)]
    uv = rng.random((n, 2))
    noise = rng.standard_normal((n, 3)) * spec.noise_sigma

    # Square-root reparameterization makes the barycentric draw uniform in
    # area rather than clustered toward the first vertex.
    su = np.sqrt(uv[:, 0])
    b0 = 1.0 - su
    b1 = su * (1.0 - uv[:, 1])
    b2 = su * uv[:, 1]
    faces = mesh.faces[picks]
    verts = mesh.vertices
    local = (b0[:, None] * verts[faces[:, 0]]
             + b1[:, None] * verts[faces[:, 1]]
             + b2[:, None] * verts[faces[:, 2]])

    R = spec.true_pose.rotation()
    contacts = local @ R.T + spec.true_pose.translation()
    return contacts + noise, contacts


def write_measurements_csv(path, points: np.ndarray) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MEASUREMENT_HEADER)
        for row in points:
            writer.writerow([f"{v:.9g}" for v in row])


def read_measurements_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != MEASUREMENT_HEADER:
            raise InvalidConfigError(
                f"{path}: expected header {','.join(MEASUREMENT_HEADER)}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise InvalidConfigError(f"{path}: no measurement rows")
    arr = np.asarray(rows, dtype=float)
    if arr.shape[1] != 3:
        raise InvalidConfigError(f"{path}: rows must have 3 columns")
    if not np.isfinite(arr).all():
        raise InvalidConfigError(f"{path}: non-finite measurement values")
    return arr


def write_ground_truth_json(path, spec: ScenarioSpec, contacts: np.ndarray) -> None:
    payload = {
        "schema": GROUND_TRUTH_SCHEMA,
        "scenario": spec.to_dict(),
        "contacts": np.atleast_2d(np.asarray(contacts, dtype=float)).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_ground_truth_json(path) -> tuple[ScenarioSpec, np.ndarray]:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("schema") != GROUND_TRUTH_SCHEMA:
        raise InvalidConfigError(f"{path}: not a {GROUND_TRUTH_SCHEMA} object")
    try:
        s = payload["scenario"]
        spec = ScenarioSpec(
            mesh_path=s.get("mesh_path"),
            true_pose=Pose.from_array(np.asarray(s["true_pose"], dtype=float)),
            n_measurements=int(s["n_measurements"]),
            noise_sigma=float(s["noise_sigma"]),
            face_subset=(None if s.get("face_subset") is None
                         else tuple(s["face_subset"])),
            seed=int(s["seed"]),
        )
        return spec, np.asarray(payload["contacts"], dtype=float)
    except KeyError as exc:
        raise InvalidConfigError(f"{path}: ground truth lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"{path}: malformed ground truth: {exc}") from None
