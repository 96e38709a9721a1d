"""Rigid-body poses and closest-point queries on triangle meshes.

Conventions
-----------
A pose is the 6-vector ``(x, y, z, phi, theta, psi)``: translation in meters
followed by intrinsic Z-Y-X Euler angles in radians (``psi`` yaw about z,
``theta`` pitch about y, ``phi`` roll about x).  The body rotation is::

    R = Rz(psi) @ Ry(theta) @ Rx(phi)

This is the single rotation convention of the whole package; every module
goes through :func:`rotation_matrices`.  Canonical angle ranges are
``theta in [-pi/2, pi/2]`` and ``phi, psi in (-pi, pi]``; canonicalization is
applied only when poses are reported, never inside estimation loops.

Meshes are indexed triangle soups in object-frame meters.  `TriMesh` builds
an axis-aligned bounding-box tree at construction and is immutable
afterwards, so instances can be shared freely across threads and processes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, holds_bool, read_lines

__all__ = [
    "Pose",
    "TriMesh",
    "rotation_matrices",
    "euler_from_matrix",
    "load_obj",
    "box_mesh",
]

logger = logging.getLogger(__name__)

# Queries per traversal chunk: at most _KERNEL_BLOCK over the widest leaf,
# which bounds the leaf pass's (chunk, width) bound and slot arrays, and at
# most _PAIR_BUDGET over the face count, which bounds peak memory even when
# every query reaches every leaf.  Neither changes results.  Unlimited, the
# first raised box-desk's peak RSS from 49.6 to 67.1 MB on a 2-core Xeon
# and did not lower its median contact latency.
_KERNEL_BLOCK = 8192
_PAIR_BUDGET = 4_000_000

# Most faces in one BVH leaf, chosen by measurement on a 2-core Xeon with
# AVX-512 and numpy 2.4.6.  At 16 the 12-face box is one leaf, and posed
# box queries near one face take 1.4-1.8 us/query against 2.2-2.4 at 8
# and 4.1-6.0 at 4.  On the 972-face box, posed queries about 2 mm off the
# surface take 6.2-7.0 us/query at 16, 6.3-6.8 at 8 and 7.5-8.0 at 32.
LEAF_SIZE = 16


def rotation_matrices(poses: np.ndarray) -> np.ndarray:
    """Rotation matrices for one pose or a batch of poses.

    Parameters
    ----------
    poses : array, shape (..., 6)

    Returns
    -------
    array, shape (..., 3, 3) with R = Rz(psi) @ Ry(theta) @ Rx(phi).
    """
    poses = np.asarray(poses, dtype=float)
    phi = poses[..., 3]
    theta = poses[..., 4]
    psi = poses[..., 5]
    cf, sf = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(psi), np.sin(psi)
    R = np.empty(poses.shape[:-1] + (3, 3), dtype=float)
    R[..., 0, 0] = cp * ct
    R[..., 0, 1] = cp * st * sf - sp * cf
    R[..., 0, 2] = cp * st * cf + sp * sf
    R[..., 1, 0] = sp * ct
    R[..., 1, 1] = sp * st * sf + cp * cf
    R[..., 1, 2] = sp * st * cf - cp * sf
    R[..., 2, 0] = -st
    R[..., 2, 1] = ct * sf
    R[..., 2, 2] = ct * cf
    return R


def euler_from_matrix(R: np.ndarray) -> tuple[float, float, float]:
    """Recover ``(phi, theta, psi)`` from a rotation matrix.

    Returns canonical angles: theta in [-pi/2, pi/2], phi and psi in
    (-pi, pi].  At the gimbal singularity (|cos theta| ~ 0) phi is set to 0
    and the remaining freedom is absorbed by psi.
    """
    R = np.asarray(R, dtype=float)
    st = float(np.clip(-R[2, 0], -1.0, 1.0))
    theta = float(np.arcsin(st))
    if abs(st) > 1.0 - 1e-12:
        phi = 0.0
        psi = float(np.arctan2(-R[0, 1], R[1, 1]))
    else:
        phi = float(np.arctan2(R[2, 1], R[2, 2]))
        psi = float(np.arctan2(R[1, 0], R[0, 0]))
    return _halfopen(phi), theta, _halfopen(psi)


def _halfopen(angle: float) -> float:
    # atan2 yields [-pi, pi]; fold -pi onto +pi for the (-pi, pi] range.
    if angle <= -np.pi:
        return angle + 2.0 * np.pi
    return angle


@dataclass(frozen=True)
class Pose:
    """Position plus intrinsic Z-Y-X Euler angles (see module docstring)."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    phi: float = 0.0
    theta: float = 0.0
    psi: float = 0.0

    @classmethod
    def from_array(cls, v) -> "Pose":
        v = np.asarray(v, dtype=float).reshape(6)
        return cls(*(float(c) for c in v))

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.phi, self.theta, self.psi])

    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def rotation(self) -> np.ndarray:
        return rotation_matrices(self.to_array())

    def canonical(self) -> "Pose":
        """Same rigid placement with angles in their canonical ranges."""
        phi, theta, psi = euler_from_matrix(self.rotation())
        return Pose(self.x, self.y, self.z, phi, theta, psi)


def closest_point_on_triangles(q, a, b, c):
    """Closest points on triangles ``(a, b, c)`` to query points ``q``.

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


def _build_tree(vertices: np.ndarray, faces: np.ndarray):
    """Complete axis-aligned bounding-box tree over ``faces``, stored level
    by level (Ericson 2004, 6.6.1), as ``(bbox_min, bbox_max, leaves)``.

    Node 0 is the root and node ``i`` has children ``2i + 1`` and ``2i + 2``.
    All leaves sit at the least depth at which median halving leaves at most
    ``LEAF_SIZE`` faces per leaf; they are the last ``len(leaves)`` nodes.
    Each level splits every segment of ``order`` by a stable sort of face
    centroids along the longest axis of the segment's box, the first half
    (rounded down) going left.  Leaf sizes differ by at most one.
    """
    tri = vertices[faces]
    face_min = tri.min(axis=1)
    face_max = tri.max(axis=1)
    centroid = tri.mean(axis=1)

    depth = (-(-len(faces) // LEAF_SIZE) - 1).bit_length()
    order = np.arange(len(faces))
    bounds = np.array([0, len(faces)])
    bbox_min, bbox_max = [], []
    for level in range(depth + 1):
        # reduceat needs non-empty segments: below the root each segment
        # holds more than LEAF_SIZE / 2 faces.
        seg = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        lo = np.minimum.reduceat(face_min[order], bounds[:-1])
        hi = np.maximum.reduceat(face_max[order], bounds[:-1])
        bbox_min.append(lo)
        bbox_max.append(hi)
        if level == depth:
            break
        axis = np.argmax(hi - lo, axis=1)
        order = order[np.lexsort((centroid[order, axis[seg]], seg))]
        mid = bounds[:-1] + np.diff(bounds) // 2
        bounds = np.append(np.stack([bounds[:-1], mid], axis=1).ravel(), len(faces))
    # Leaf rows: faces ascending, so within-leaf argmin ties pick the lowest
    # face index, then the last face repeated up to the widest leaf, which
    # never wins, since argmin takes the first minimum.
    order = order[np.lexsort((order, seg))]
    count = np.diff(bounds)
    slot = np.minimum(np.arange(count.max()), count[:, None] - 1)
    leaves = order[bounds[:-1, None] + slot]
    return np.concatenate(bbox_min), np.concatenate(bbox_max), leaves


class TriMesh:
    """Indexed triangle mesh with a bounding-box tree for closest-point
    queries.

    Arrays of the wrong shape, non-finite vertex coordinates, face indices
    that are not integers and face indices out of range raise
    ``InvalidConfigError``.  Zero-area faces (repeated vertex indices or
    collinear corners) are dropped at construction with a warning; at least
    one usable face must remain, or ``InvalidConfigError`` is raised.
    The tree is ``bbox_min`` and ``bbox_max`` per node and ``leaves``, row
    ``j`` holding leaf ``j``'s faces in ascending index, padded to the
    widest leaf by repeating its last face (see `_build_tree`).  Each leaf
    row's triangle corners and face bounding boxes are kept in the same
    ``(leaves, width, 3)`` layout, so a query gathers only the faces that
    its box bounds leave in play (see `_leaf_minima`).
    All arrays are read-only after construction.  `closest_points_posed`
    is the one query from world contacts to the posed surface: the
    likelihood, the UKF prediction and the performance index all use it.
    """

    __slots__ = ("vertices", "faces", "bbox_min", "bbox_max", "leaves", "_corners",
                 "_face_boxes")

    def __init__(self, vertices, faces):
        vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise InvalidConfigError("vertices must have shape (V, 3)")
        # A float or bool index would be truncated to an integer face.
        if np.asarray(faces).dtype.kind not in "iu" or holds_bool(faces):
            raise InvalidConfigError("faces must be integer vertex indices")
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise InvalidConfigError("faces must have shape (F, 3)")
        if not np.isfinite(vertices).all():
            raise InvalidConfigError("vertex coordinates must be finite")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise InvalidConfigError("face indices out of range")

        keep = self._usable(vertices, faces)
        dropped = int(len(faces) - keep.sum())
        if dropped:
            logger.warning("dropping %d degenerate face(s) at mesh load", dropped)
            faces = faces[keep]
        if len(faces) == 0:
            raise InvalidConfigError("mesh has no non-degenerate faces")

        self.vertices = vertices
        self.faces = faces
        self.bbox_min, self.bbox_max, self.leaves = _build_tree(vertices, faces)
        # Corners a, b and c of every leaf row, shape (leaves, width, 3).
        self._corners = tuple(vertices[faces[self.leaves, k]] for k in range(3))
        # Each face's bounding box in the same layout.  A padding slot gets
        # the empty box (+inf, -inf), whose distance bound is inf, so the
        # leaf pass never runs the repeated face twice.
        corners = np.stack(self._corners)
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        pad = np.zeros(self.leaves.shape, dtype=bool)
        pad[:, 1:] = self.leaves[:, 1:] == self.leaves[:, :-1]
        lo[pad], hi[pad] = np.inf, -np.inf
        self._face_boxes = (lo, hi)
        for array in (vertices, faces, self.bbox_min, self.bbox_max, self.leaves,
                      *self._corners, *self._face_boxes):
            array.setflags(write=False)

    @staticmethod
    def _usable(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
        # A repeated vertex index makes the cross product exactly 0: dropped.
        a = vertices[faces[:, 0]]
        ab = vertices[faces[:, 1]] - a
        ac = vertices[faces[:, 2]] - a
        cross = np.cross(ab, ac)
        area2 = np.linalg.norm(cross, axis=1)
        scale = np.linalg.norm(ab, axis=1) * np.linalg.norm(ac, axis=1)
        return area2 > 1e-14 * np.maximum(scale, 1e-300)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def closest_points(self, Q: np.ndarray):
        """Batched nearest-point query by one traversal of the tree.

        The result equals an argmin over all faces of the squared distances
        from :func:`closest_point_on_triangles`, ties going to the lowest
        face index, bit for bit, although box bounds prune most nodes and,
        inside each leaf, most faces before the kernel runs.

        Parameters
        ----------
        Q : array, shape (M, 3)

        Returns
        -------
        (distances (M,), points (M, 3), face_indices (M,))
        """
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[1] != 3:
            raise InvalidConfigError("queries must have shape (M, 3)")
        M = len(Q)
        d2 = np.empty(M)
        points = np.empty((M, 3))
        faces = np.empty(M, dtype=np.int64)
        chunk = max(1, min(_KERNEL_BLOCK // self.leaves.shape[1],
                           _PAIR_BUDGET // self.n_faces))
        for s in range(0, M, chunk):
            e = min(M, s + chunk)
            d2[s:e], faces[s:e], points[s:e] = self._traverse(Q[s:e])
        return np.sqrt(d2), points, faces

    def closest_points_posed(self, points, poses):
        """The contact-to-surface query: `closest_points` for world ``points``
        (K, 3) against the mesh posed at each row of ``poses`` (B, 6).
        Returns distances (B, K) and world-frame nearest points (B, K, 3)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        poses = np.atleast_2d(np.asarray(poses, dtype=float))
        R = rotation_matrices(poses)
        t = poses[:, None, :3]
        local = np.einsum("bji,bkj->bki", R, points[None, :, :] - t)
        d, nearest, _ = self.closest_points(local.reshape(-1, 3))
        world = np.einsum("bij,bkj->bki", R, nearest.reshape(local.shape)) + t
        return d.reshape(local.shape[:2]), world

    def _traverse(self, Q: np.ndarray):
        """All queries descend the tree together (Ericson 2004, ch. 6)."""
        m = len(Q)
        depth = (len(self.leaves) - 1).bit_length()

        def box_dist2(nodes, q):
            diff = q - np.minimum(np.maximum(q, self.bbox_min[nodes]), self.bbox_max[nodes])
            return np.einsum("ij,ij->i", diff, diff)

        # Each query follows the nearer child box down to one leaf, whose
        # faces give it an upper bound on its distance.
        first = np.zeros(m, dtype=np.int64)
        for _ in range(depth):
            lo = 2 * first + 1
            first = np.where(box_dist2(lo + 1, Q) < box_dist2(lo, Q), lo + 1, lo)
        best_d2, best_face, best_pt = self._leaf_minima(Q, np.arange(m), first)

        # Breadth-first frontier of (query, node) pairs.  A box is pruned
        # with a few ulps of slack: one that ties the incumbent distance may
        # still hold a lower face index, and box and face distances round
        # differently.  A NaN distance prunes nothing.
        fq = np.arange(m)
        fn = np.zeros(m, dtype=np.int64)
        for level in range(depth + 1):
            keep = ~(box_dist2(fn, Q[fq]) > best_d2[fq] * (1.0 + 1e-12))
            fq, fn = fq[keep], fn[keep]
            if level < depth:
                fq = np.repeat(fq, 2)
                fn = (2 * fn[:, None] + [1, 2]).ravel()
        new = fn != first[fq]
        if new.any():
            # Lexicographic minimum of (d2, face) per query over the
            # incumbents and the surviving leaves; lexsort puts NaN last.
            qi = fq[new]
            d2, face, pt = self._leaf_minima(Q, qi, fn[new])
            seen = np.unique(qi)
            owner = np.concatenate([seen, qi])
            d2 = np.concatenate([best_d2[seen], d2])
            face = np.concatenate([best_face[seen], face])
            order = np.lexsort((face, d2, owner))
            owner = owner[order]
            win = order[np.r_[True, owner[1:] != owner[:-1]]]
            best_d2[seen] = d2[win]
            best_face[seen] = face[win]
            best_pt[seen] = np.concatenate([best_pt[seen], pt])[win]
        return best_d2, best_face, best_pt

    def _leaf_minima(self, Q, qi, nodes):
        """Nearest face of leaf ``nodes[i]`` to query ``Q[qi[i]]``, as
        ``(d2, face, point)``; ties go to the lowest face index.

        The squared distance from a query to a face's bounding box bounds
        its distance to the face from below (Johnson & Cohen 1998).  The
        kernel runs first on each query's one face of least bound, then on
        the other faces whose bound is not above that face's distance, with
        the slack of `_traverse`; a NaN prunes nothing.  A pruned face can
        hold neither a smaller distance nor a tie, so the result equals the
        kernel's argmin over the whole row.  A row of NaN or inf bounds
        still seeds a real face: a padding slot repeats its row's last face.
        """
        leaf = nodes - (len(self.leaves) - 1)
        n = len(qi)
        q = Q[qi]
        # One coordinate at a time: numpy's loops run along the leaf row,
        # not along an axis of 3.  A bound that overflows to inf is still a
        # lower bound: the face's own squared distance overflows too.
        bound = 0.0
        with np.errstate(over="ignore"):
            for c in range(3):
                qc = q[:, c, None]
                lo, hi = (np.take(box[..., c], leaf, axis=0) for box in self._face_boxes)
                gap = qc - np.minimum(np.maximum(qc, lo), hi)
                bound = bound + gap * gap

        first = np.argmin(bound, axis=1)
        rows = np.arange(n)
        pts, d2 = closest_point_on_triangles(
            q, *(block[leaf, first] for block in self._corners))

        rest = ~(bound > d2[:, None] * (1.0 + 1e-12))
        rest[rows, first] = False
        r, s = np.nonzero(rest)
        more_pts, more_d2 = closest_point_on_triangles(
            q[r], *(block[leaf[r], s] for block in self._corners))

        # Back into the leaf row, faces ascending: the first minimum of a
        # row is its lexicographic minimum of (d2, face).  A pruned slot
        # holds inf, which loses to the finite best distance that pruned it.
        slot_d2 = np.full(bound.shape, np.inf)
        slot_d2[rows, first] = d2
        slot_d2[r, s] = more_d2
        slot_pts = np.empty(bound.shape + (3,))
        slot_pts[rows, first] = pts
        slot_pts[r, s] = more_pts
        j = np.argmin(slot_d2, axis=1)
        return slot_d2[rows, j], self.leaves[leaf, j], slot_pts[rows, j]


def load_obj(path) -> TriMesh:
    """Load a Wavefront OBJ file (``v``/``f`` records, meters).

    Polygon faces are fan-triangulated; texture and normal indices are
    ignored; negative vertex references resolve relative to the vertices
    seen so far.  A ``v`` record with fewer than 3 coordinates, an ``f``
    record with fewer than 3 vertices, a non-numeric or non-finite token or
    a face index outside the vertices read so far raises
    ``InvalidConfigError`` naming the file and line: skipping a vertex would
    shift every later face index.  A missing file, a directory or a file
    that is not UTF-8 text raises it naming the file.
    """
    vertices: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(read_lines(path, "mesh"), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts or parts[0] not in ("v", "f"):
            continue
        where = f"{path}:{lineno}"
        if len(parts) < 4:
            what = "coordinates" if parts[0] == "v" else "vertices"
            raise InvalidConfigError(f"{where}: '{parts[0]}' record needs at least 3 {what}")
        try:
            if parts[0] == "v":
                vertices.append([float(t) for t in parts[1:4]])
                if not np.isfinite(vertices[-1]).all():
                    raise ValueError(f"non-finite vertex coordinate in {' '.join(parts)!r}")
                continue
            ids = [int(t.split("/")[0]) for t in parts[1:]]
        except ValueError as exc:
            raise InvalidConfigError(f"{where}: {exc}") from None
        ids = [len(vertices) + i if i < 0 else i - 1 for i in ids]
        if min(ids) < 0 or max(ids) >= len(vertices):
            raise InvalidConfigError(f"{where}: face index out of range for "
                                     f"{len(vertices)} vertices read so far")
        faces.extend((ids[0], ids[t], ids[t + 1]) for t in range(1, len(ids) - 1))
    if not faces:
        raise InvalidConfigError(f"no faces found in {path}")
    return TriMesh(np.asarray(vertices), np.asarray(faces))


def box_mesh(size_x: float, size_y: float, size_z: float) -> TriMesh:
    """Axis-aligned box centered at the origin, 12 triangles."""
    hx, hy, hz = size_x / 2.0, size_y / 2.0, size_z / 2.0
    v = np.array([
        [-hx, -hy, -hz], [hx, -hy, -hz], [hx, hy, -hz], [-hx, hy, -hz],
        [-hx, -hy, hz], [hx, -hy, hz], [hx, hy, hz], [-hx, hy, hz],
    ])
    f = np.array([
        [0, 3, 2], [0, 2, 1],  # z-
        [4, 5, 6], [4, 6, 7],  # z+
        [0, 1, 5], [0, 5, 4],  # y-
        [2, 3, 7], [2, 7, 6],  # y+
        [0, 4, 7], [0, 7, 3],  # x-
        [1, 2, 6], [1, 6, 5],  # x+
    ])
    return TriMesh(v, f)
