from pathlib import Path

import numpy as np
import pytest

from meshloc.geometry import TriMesh, box_mesh


@pytest.fixture
def box() -> TriMesh:
    """The 0.1 x 0.3 x 0.2 m box used throughout the batch scenarios."""
    return box_mesh(0.1, 0.3, 0.2)


@pytest.fixture
def unit_box() -> TriMesh:
    return box_mesh(1.0, 1.0, 1.0)


def random_soup(n_faces: int, seed: int, scale: float = 1.0) -> TriMesh:
    """Random triangle soup: valid for distance queries, not a manifold."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-scale, scale, size=(n_faces, 1, 3))
    corners = centers + rng.normal(scale=0.15 * scale, size=(n_faces, 3, 3))
    vertices = corners.reshape(-1, 3)
    faces = np.arange(3 * n_faces, dtype=np.int64).reshape(-1, 3)
    return TriMesh(vertices, faces)


def save_obj(mesh: TriMesh, path) -> None:
    """Write a mesh as a minimal OBJ file (9 significant digits)."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
