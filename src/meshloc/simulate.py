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
import dataclasses
import io
import json
import numbers

import numpy as np

from .errors import InvalidConfigError, as_real, is_int, json_text, read_lines, write_text
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
# The most contacts whose (L, 3) float array numpy can address; a larger
# count would fail inside numpy, without naming the field.
_MAX_MEASUREMENTS = np.iinfo(np.intp).max // (3 * 8)


def _is_finite_number(value) -> bool:
    """True for a finite real number; a bool, which `numbers.Real` admits,
    is not one, nor is an integer too large for a float."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and bool(np.isfinite(float(value))))
    except OverflowError:
        return False


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One synthetic measurement scenario."""

    mesh_path: str | None
    true_pose: Pose
    n_measurements: int
    noise_sigma: float = 0.0
    face_subset: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        # Each field is checked once and stored in its JSON type, so that
        # `to_dict` writes the fields as they are; a bool or a fraction where
        # an integer belongs is refused, never cut.
        if not (self.mesh_path is None or isinstance(self.mesh_path, str)):
            raise InvalidConfigError("mesh_path must be a string or null")
        if not (is_int(self.n_measurements) and self.n_measurements >= 1):
            raise InvalidConfigError("n_measurements must be a positive integer")
        if self.n_measurements > _MAX_MEASUREMENTS:
            raise InvalidConfigError(f"n_measurements must be at most {_MAX_MEASUREMENTS}")
        pose = self.true_pose
        if not (isinstance(pose, Pose)
                and all(map(_is_finite_number, dataclasses.astuple(pose)))):
            raise InvalidConfigError(f"true_pose must be a Pose of finite numbers, got {pose!r}")
        sigma = self.noise_sigma
        if not (_is_finite_number(sigma) and sigma >= 0.0):
            raise InvalidConfigError("noise_sigma must be a finite non-negative number")
        if not (is_int(self.seed) and self.seed >= 0):
            raise InvalidConfigError("seed must be a non-negative integer")
        subset = self.face_subset
        if not (subset is None
                or isinstance(subset, (list, tuple)) and all(map(is_int, subset))):
            raise InvalidConfigError("face_subset must be a list of integer face indices")
        object.__setattr__(self, "true_pose", Pose(*map(float, dataclasses.astuple(pose))))
        object.__setattr__(self, "n_measurements", int(self.n_measurements))
        object.__setattr__(self, "noise_sigma", float(sigma))
        object.__setattr__(self, "seed", int(self.seed))
        if self.face_subset is not None:
            object.__setattr__(self, "face_subset", tuple(map(int, self.face_subset)))

    def resolved_subset(self, mesh: TriMesh) -> np.ndarray:
        """Validated face indices to sample from (all faces by default)."""
        subset = self.face_subset
        if subset is None:
            return np.arange(mesh.n_faces)
        # Checked as Python ints: an index beyond int64 is out of range too.
        if not subset:
            raise InvalidConfigError("face_subset must not be empty")
        if len(set(subset)) != len(subset):
            raise InvalidConfigError("face_subset contains duplicates")
        if min(subset) < 0 or max(subset) >= mesh.n_faces:
            raise InvalidConfigError(
                f"face_subset indices must lie in [0, {mesh.n_faces}), "
                f"got range [{min(subset)}, {max(subset)}]")
        return np.asarray(subset, dtype=int)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self) | {"true_pose": self.true_pose.to_array().tolist()}


def sample_contacts(spec: ScenarioSpec, mesh: TriMesh):
    """Generate noisy world-frame contacts plus their pre-noise ground truth.

    Returns ``(measurements, contacts)``, both (L, 3).  ``contacts`` lie
    exactly on the posed surface; ``measurements`` add world-frame
    isotropic Gaussian noise of standard deviation ``spec.noise_sigma``.
    A measurement that is not finite, which `read_measurements_csv` would
    refuse, raises `InvalidConfigError` naming ``noise_sigma`` and
    ``true_pose``.
    """
    subset = spec.resolved_subset(mesh)
    n = spec.n_measurements
    rng = np.random.default_rng(spec.seed)

    picks = subset[rng.integers(0, len(subset), size=n)]
    uv = rng.random((n, 2))
    normals = rng.standard_normal((n, 3))

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
    with np.errstate(over="ignore"):
        measurements = contacts + normals * spec.noise_sigma
    if not np.isfinite(measurements).all():
        raise InvalidConfigError(
            f"noise_sigma {spec.noise_sigma!r} or true_pose "
            f"{spec.true_pose.to_array().tolist()} gives measurements that are not finite")
    return measurements, contacts


def write_measurements_csv(path, points: np.ndarray) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(MEASUREMENT_HEADER)
    writer.writerows([f"{v:.9g}" for v in row]
                     for row in np.atleast_2d(np.asarray(points, dtype=float)))
    write_text(path, text.getvalue())


def _numbered_rows(lines, path):
    """``(line number, row)`` for each CSV record of ``lines``; a line the
    csv module cannot split, such as an oversized field, raises
    `InvalidConfigError` naming ``path`` and the line."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise InvalidConfigError(f"{path}:{reader.line_num}: {exc}") from None


def read_measurements_csv(path) -> np.ndarray:
    numbered = _numbered_rows(read_lines(path, "measurement"), path)
    _, header = next(numbered, (0, None))
    if header is None or tuple(h.strip() for h in header) != MEASUREMENT_HEADER:
        raise InvalidConfigError(
            f"{path}: expected header {','.join(MEASUREMENT_HEADER)}")
    rows = []
    for line, row in numbered:
        if not row:
            continue
        where = f"{path}:{line}"
        if len(row) != 3:
            raise InvalidConfigError(f"{where}: expected 3 values, got {len(row)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise InvalidConfigError(f"{where}: {exc}") from None
        if not np.isfinite(rows[-1]).all():
            raise InvalidConfigError(f"{where}: non-finite measurement values")
    if not rows:
        raise InvalidConfigError(f"{path}: no measurement rows")
    return np.asarray(rows, dtype=float)


def write_ground_truth_json(path, spec: ScenarioSpec, contacts: np.ndarray) -> None:
    write_text(path, json_text({
        "schema": GROUND_TRUTH_SCHEMA,
        "scenario": spec.to_dict(),
        "contacts": np.atleast_2d(np.asarray(contacts, dtype=float)).tolist(),
    }))


def read_ground_truth_json(path) -> tuple[ScenarioSpec, np.ndarray]:
    text = "".join(read_lines(path, "ground-truth"))
    try:
        payload = json.loads(text)
    except ValueError as exc:   # not JSON, or an integer too long to convert
        raise InvalidConfigError(f"{path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("schema") != GROUND_TRUTH_SCHEMA:
        raise InvalidConfigError(f"{path}: not a {GROUND_TRUTH_SCHEMA} object")
    try:
        # Every field is required: the defaults must not fill in a truncated file.
        kwargs = {f.name: payload["scenario"][f.name]
                  for f in dataclasses.fields(ScenarioSpec)}
        pose = kwargs["true_pose"]
        if not (isinstance(pose, list) and len(pose) == 6):
            raise InvalidConfigError(f"true_pose must be a list of 6 numbers, got {pose!r}")
        kwargs["true_pose"] = Pose(*pose)   # ScenarioSpec checks each number
        spec = ScenarioSpec(**kwargs)
        n = spec.n_measurements
        contacts = as_real(payload["contacts"], "contacts", f"a list of {n} points", (n, 3))
        if not np.isfinite(contacts).all():
            raise InvalidConfigError("contacts must be finite")
        return spec, contacts
    except KeyError as exc:
        raise InvalidConfigError(f"{path}: ground truth lacks key {exc}") from None
    except (TypeError, ValueError) as exc:   # InvalidConfigError among them
        raise InvalidConfigError(f"{path}: malformed ground truth: {exc}") from None
