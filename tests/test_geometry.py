from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshloc.errors import InvalidConfigError
from meshloc.geometry import (
    LEAF_SIZE,
    Pose,
    TriMesh,
    box_mesh,
    build_bvh,
    euler_from_matrix,
    load_obj,
    points_into_object_frame,
    points_to_world_frame,
    rotation_matrices,
)

from conftest import random_soup, save_obj
from oracles import closest_point_brute, closest_points_exhaustive


def _rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


finite_angle = st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False)
finite_coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


class TestPoseMath:
    def test_zero_pose_is_identity(self):
        npt.assert_array_equal(Pose().rotation(), np.eye(3))
        npt.assert_array_equal(Pose().translation(), np.zeros(3))

    def test_translation_only(self):
        pose = Pose(x=1.0, y=-2.0, z=0.5)
        npt.assert_array_equal(pose.rotation(), np.eye(3))
        npt.assert_array_equal(pose.translation(), [1.0, -2.0, 0.5])

    def test_rotation_matches_elementary_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            phi, theta, psi = rng.uniform(-np.pi, np.pi, 3)
            R = rotation_matrices(np.array([0, 0, 0, phi, theta, psi]))
            expected = _rz(psi) @ _ry(theta) @ _rx(phi)
            npt.assert_allclose(R, expected, atol=1e-12)

    def test_rotation_is_orthonormal(self):
        rng = np.random.default_rng(3)
        poses = rng.uniform(-np.pi, np.pi, size=(20, 6))
        R = rotation_matrices(poses)
        npt.assert_allclose(R @ np.swapaxes(R, -1, -2), np.tile(np.eye(3), (20, 1, 1)),
                            atol=1e-12)
        npt.assert_allclose(np.linalg.det(R), np.ones(20), atol=1e-12)

    def test_euler_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            phi, psi = rng.uniform(-np.pi, np.pi, 2)
            theta = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3)
            R = rotation_matrices(np.array([0, 0, 0, phi, theta, psi]))
            phi2, theta2, psi2 = euler_from_matrix(R)
            R2 = rotation_matrices(np.array([0, 0, 0, phi2, theta2, psi2]))
            npt.assert_allclose(R2, R, atol=1e-9)
            assert -np.pi / 2 <= theta2 <= np.pi / 2

    def test_canonical_ranges(self):
        p = Pose(0.1, 0.2, 0.3, phi=4.0, theta=2.0, psi=-9.0).canonical()
        assert -np.pi < p.phi <= np.pi
        assert -np.pi / 2 <= p.theta <= np.pi / 2
        assert -np.pi < p.psi <= np.pi
        npt.assert_allclose(p.rotation(),
                            Pose(0.1, 0.2, 0.3, 4.0, 2.0, -9.0).rotation(),
                            atol=1e-9)

    def test_gimbal_lock_round_trip(self):
        R = rotation_matrices(np.array([0, 0, 0, 0.3, np.pi / 2, -0.7]))
        phi, theta, psi = euler_from_matrix(R)
        R2 = rotation_matrices(np.array([0, 0, 0, phi, theta, psi]))
        npt.assert_allclose(R2, R, atol=1e-9)


class TestFrameTransforms:
    def test_identity_pose_keeps_point(self):
        y = np.array([0.3, -0.1, 0.7])
        got = points_into_object_frame(y[None], Pose().to_array()[None])
        npt.assert_array_equal(got[0, 0], y)

    def test_translation_only_shifts(self):
        y = np.array([1.0, 1.0, 1.0])
        pose = Pose(x=1.0, y=1.0, z=1.0)
        got = points_into_object_frame(y[None], pose.to_array()[None])
        npt.assert_allclose(got[0, 0], np.zeros(3), atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(finite_coord, finite_coord, finite_coord,
           finite_angle, finite_angle, finite_angle,
           finite_coord, finite_coord, finite_coord)
    def test_round_trip(self, x, y, z, phi, theta, psi, px, py, pz):
        pose = Pose(x, y, z, phi, theta, psi)
        point = np.array([px, py, pz])
        obj = points_into_object_frame(point[None], pose.to_array()[None])[0, 0]
        back = pose.rotation() @ obj + pose.translation()
        npt.assert_allclose(back, point, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        poses = rng.normal(size=(4, 6))
        pts = rng.normal(size=(3, 3))
        batch = points_into_object_frame(pts, poses)
        for b in range(4):
            for k in range(3):
                R = rotation_matrices(poses[b])
                single = R.T @ (pts[k] - poses[b, :3])
                npt.assert_allclose(batch[b, k], single, atol=1e-14)
        back = points_to_world_frame(batch, poses)
        npt.assert_allclose(back, np.broadcast_to(pts, (4, 3, 3)), atol=1e-12)


class TestClosestPoint:
    def test_query_at_vertex(self, unit_box):
        q = unit_box.vertices[0]
        d, p, _ = unit_box.closest_points(q[None])
        assert d[0] == 0.0
        npt.assert_allclose(p[0], q, atol=1e-15)

    def test_single_face_orthogonal_projection(self):
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        d, p, f = mesh.closest_points(np.array([0.2, 0.2, 1.0])[None])
        npt.assert_allclose(p[0], [0.2, 0.2, 0.0], atol=1e-15)
        npt.assert_allclose(d[0], 1.0, rtol=1e-15)
        assert f[0] == 0

    def test_distance_consistent_with_point(self, box):
        rng = np.random.default_rng(17)
        Q = rng.uniform(-0.4, 0.4, size=(200, 3))
        d, p, _ = box.closest_points(Q)
        npt.assert_allclose(d, np.linalg.norm(Q - p, axis=1), rtol=1e-12, atol=1e-15)

    def test_matches_brute_oracle_box(self, box):
        rng = np.random.default_rng(23)
        Q = rng.uniform(-0.5, 0.5, size=(500, 3))
        d, p, f = box.closest_points(Q)
        od, op, of = closest_point_brute(Q, box.vertices, box.faces)
        npt.assert_allclose(d, od, atol=1e-12)
        npt.assert_allclose(p, op, atol=1e-9)
        npt.assert_array_equal(f, of)

    def test_matches_brute_oracle_soup(self):
        mesh = random_soup(120, seed=1)
        rng = np.random.default_rng(29)
        Q = rng.uniform(-1.5, 1.5, size=(400, 3))
        d, p, f = mesh.closest_points(Q)
        od, op, of = closest_point_brute(Q, mesh.vertices, mesh.faces)
        npt.assert_allclose(d, od, atol=1e-12)
        npt.assert_array_equal(f, of)

    def test_barycentric_of_returned_point(self, box):
        rng = np.random.default_rng(31)
        Q = rng.uniform(-0.5, 0.5, size=(100, 3))
        d, p, f = box.closest_points(Q)
        a = box.vertices[box.faces[f, 0]]
        b = box.vertices[box.faces[f, 1]]
        c = box.vertices[box.faces[f, 2]]
        ab, ac = b - a, c - a
        d00 = np.einsum("ij,ij->i", ab, ab)
        d01 = np.einsum("ij,ij->i", ab, ac)
        d11 = np.einsum("ij,ij->i", ac, ac)
        rhs = p - a
        d20 = np.einsum("ij,ij->i", rhs, ab)
        d21 = np.einsum("ij,ij->i", rhs, ac)
        den = d00 * d11 - d01 * d01
        v = (d11 * d20 - d01 * d21) / den
        w = (d00 * d21 - d01 * d20) / den
        assert np.all(v >= -1e-9) and np.all(w >= -1e-9)
        assert np.all(v + w <= 1 + 1e-9)
        recon = a + v[:, None] * ab + w[:, None] * ac
        npt.assert_allclose(recon, p, atol=1e-9)

    def test_zero_distance_iff_on_surface(self, box):
        rng = np.random.default_rng(37)
        # Points sampled on faces have distance ~0.
        fi = rng.integers(0, box.n_faces, size=50)
        u, v = rng.uniform(size=(2, 50))
        su = np.sqrt(u)
        a = box.vertices[box.faces[fi, 0]]
        b = box.vertices[box.faces[fi, 1]]
        c = box.vertices[box.faces[fi, 2]]
        on = (1 - su)[:, None] * a + (su * (1 - v))[:, None] * b + (su * v)[:, None] * c
        d_on, _, _ = box.closest_points(on)
        assert np.all(d_on < 1e-9)
        # Points pushed along +x beyond the surface are strictly off it.
        off = on + np.array([0.3, 0.0, 0.0])
        d_off, _, _ = box.closest_points(off)
        assert np.all(d_off > 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(finite_coord, finite_coord, finite_coord,
           st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    def test_distance_is_1_lipschitz(self, ax, ay, az, dx, dy, dz):
        mesh = box_mesh(0.1, 0.3, 0.2)
        p = np.array([ax, ay, az])
        q = p + np.array([dx, dy, dz])
        dp = mesh.closest_points(p[None])[0][0]
        dq = mesh.closest_points(q[None])[0][0]
        assert abs(dp - dq) <= np.linalg.norm(p - q) + 1e-12

    def test_rigid_invariance(self, box):
        rng = np.random.default_rng(41)
        R = rotation_matrices(np.array([0, 0, 0, 0.4, -0.2, 1.1]))
        t = np.array([0.3, -0.1, 0.25])
        moved = TriMesh(box.vertices @ R.T + t, box.faces)
        Q = rng.uniform(-0.4, 0.4, size=(100, 3))
        d0, _, _ = box.closest_points(Q)
        d1, _, _ = moved.closest_points(Q @ R.T + t)
        npt.assert_allclose(d1, d0, atol=1e-9)

    def test_empty_mesh_raises(self):
        with pytest.raises(InvalidConfigError):
            TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))

    def test_batch_query_projects_onto_face(self, unit_box):
        _, points, _ = unit_box.closest_points(np.array([[2.0, 0.0, 0.0]]))
        npt.assert_allclose(points[0], [0.5, 0.0, 0.0], atol=1e-12)


class TestBvh:
    def test_single_face_is_single_leaf(self):
        bvh = build_bvh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                        np.array([[0, 1, 2]]))
        assert len(bvh.bbox_min) == 1
        assert bvh.bounds.tolist() == [0, 1]

    def test_leaf_size_bound(self, box):
        mesh = random_soup(300, seed=2)
        assert np.diff(mesh.bvh.bounds).max() <= LEAF_SIZE == 16
        assert np.sort(mesh.bvh.order).tolist() == list(range(300))
        # The 12-face box is one leaf: one triangle-kernel call per batch.
        assert len(box.bvh.bbox_min) == 1

    def test_empty_raises(self):
        with pytest.raises(InvalidConfigError):
            build_bvh(np.zeros((1, 3)), np.zeros((0, 3), dtype=int))

    def test_bvh_equals_brute_force_large_soup(self):
        mesh = random_soup(10_000, seed=3)
        rng = np.random.default_rng(43)
        Q = rng.uniform(-1.5, 1.5, size=(1000, 3))
        got_d = np.empty(len(Q))
        got_f = np.empty(len(Q), dtype=np.int64)
        for i, q in enumerate(Q):
            d, _, f = mesh.closest_points(q[None])
            got_d[i] = d[0]
            got_f[i] = f[0]
        od, _, of = closest_point_brute(Q, mesh.vertices, mesh.faces)
        npt.assert_allclose(got_d, od, atol=1e-12)
        npt.assert_array_equal(got_f, of)

    def test_batch_path_equals_single_query_path(self, box):
        # Each row queried alone equals its batch row bitwise, which is what
        # lets workers split a batch without changing reports.
        rng = np.random.default_rng(47)
        for mesh, scale in ((box, 0.4), (random_soup(300, seed=1), 1.5)):
            Q = rng.uniform(-scale, scale, size=(100, 3))
            d_batch, p_batch, f_batch = mesh.closest_points(Q)
            for i, q in enumerate(Q):
                d, p, f = mesh.closest_points(q[None])
                assert d[0] == d_batch[i]
                assert f[0] == f_batch[i]
                npt.assert_array_equal(p[0], p_batch[i])


def _planar_grid(n: int) -> TriMesh:
    """Unit square in z=0 cut into n x n cells, two triangles each."""
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel(), np.zeros(X.size)], axis=1)
    cell = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    c00, c10, c11, c01 = cell[:-1, :-1], cell[1:, :-1], cell[1:, 1:], cell[:-1, 1:]
    faces = np.concatenate([np.stack([c00, c10, c11], -1).reshape(-1, 3),
                            np.stack([c00, c11, c01], -1).reshape(-1, 3)])
    return TriMesh(vertices, faces)


class TestExhaustiveParity:
    """The BVH traversal equals the same kernel run over every face."""

    @pytest.mark.parametrize("name", ["box", "soup300", "soup10k", "grid"])
    def test_traversal_equals_exhaustive_kernel_bitwise(self, box, name):
        rng = np.random.default_rng(53)
        if name == "box":
            mesh, Q = box, rng.uniform(-0.4, 0.4, size=(500, 3))
        elif name == "soup300":
            mesh, Q = random_soup(300, seed=1), rng.uniform(-1.5, 1.5, size=(500, 3))
        elif name == "soup10k":
            mesh, Q = random_soup(10_000, seed=3), rng.uniform(-1.5, 1.5, size=(300, 3))
        else:
            mesh, Q = _planar_grid(12), rng.uniform(-0.2, 1.2, size=(300, 3))
        d, p, f = mesh.closest_points(Q)
        od, op, of = closest_points_exhaustive(Q, mesh)
        npt.assert_array_equal(d, od)
        npt.assert_array_equal(p, op)
        npt.assert_array_equal(f, of)

    def test_exact_ties_go_to_lowest_face_across_leaves(self):
        mesh = _planar_grid(12)
        assert 250 <= mesh.n_faces <= 350
        # Above an inner grid vertex up to six faces share the distance to
        # that vertex exactly.
        Q = mesh.vertices + np.array([0.0, 0.0, 0.05])
        d, _, f = mesh.closest_points(Q)
        _, _, of = closest_points_exhaustive(Q, mesh)
        npt.assert_array_equal(f, of)
        npt.assert_array_equal(d, 0.05)
        incident = [np.flatnonzero((mesh.faces == v).any(axis=1))
                    for v in range(len(mesh.vertices))]
        assert max(len(ids) for ids in incident) == 6
        npt.assert_array_equal(f, [ids.min() for ids in incident])
        # Some tied faces sit in different leaves, so the lowest index wins
        # across leaves, not only inside one.
        leaf_of = np.empty(mesh.n_faces, dtype=np.int64)
        bounds = mesh.bvh.bounds
        leaf_of[mesh.bvh.order] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        assert any(len(set(leaf_of[ids])) > 1 for ids in incident)


class TestBvhInvariants:
    """Structure of the complete tree, checked without running a query."""

    @pytest.fixture(params=["box", "soup33", "grid", "soup300", "soup10k"])
    def mesh(self, request, box):
        return {
            "box": lambda: box,
            "soup33": lambda: random_soup(33, seed=4),
            "grid": lambda: _planar_grid(12),
            "soup300": lambda: random_soup(300, seed=1),
            "soup10k": lambda: random_soup(10_000, seed=3),
        }[request.param]()

    def test_leaves_partition_faces_in_ascending_runs(self, mesh):
        bvh = mesh.bvh
        assert bvh.bounds[0] == 0 and bvh.bounds[-1] == mesh.n_faces
        assert np.sort(bvh.order).tolist() == list(range(mesh.n_faces))
        for j in range(len(bvh.bounds) - 1):
            assert np.all(np.diff(bvh.order[bvh.bounds[j]:bvh.bounds[j + 1]]) > 0)

    def test_depth_is_the_least_that_bounds_leaf_size(self, mesh):
        bvh = mesh.bvh
        sizes = np.diff(bvh.bounds)
        assert len(sizes) == 2 ** bvh.depth
        assert len(bvh.bbox_min) == len(bvh.bbox_max) == 2 * len(sizes) - 1
        assert sizes.max() <= LEAF_SIZE
        assert sizes.max() - sizes.min() <= 1
        if bvh.depth:
            # Merging sibling leaves, i.e. one level less, overfills one.
            assert (sizes[0::2] + sizes[1::2]).max() > LEAF_SIZE

    def test_boxes_enclose_faces_tightly(self, mesh):
        bvh = mesh.bvh
        tri = mesh.vertices[mesh.faces]
        for j in range(len(bvh.bounds) - 1):
            ids = bvh.order[bvh.bounds[j]:bvh.bounds[j + 1]]
            npt.assert_array_equal(bvh.bbox_min[bvh.n_inner + j], tri[ids].min(axis=(0, 1)))
            npt.assert_array_equal(bvh.bbox_max[bvh.n_inner + j], tri[ids].max(axis=(0, 1)))
        inner = np.arange(bvh.n_inner)
        npt.assert_array_equal(bvh.bbox_min[inner], np.minimum(
            bvh.bbox_min[2 * inner + 1], bvh.bbox_min[2 * inner + 2]))
        npt.assert_array_equal(bvh.bbox_max[inner], np.maximum(
            bvh.bbox_max[2 * inner + 1], bvh.bbox_max[2 * inner + 2]))


class TestMeshIo:
    def test_obj_round_trip(self, tmp_path, box):
        path = tmp_path / "box.obj"
        save_obj(box, path)
        again = load_obj(path)
        npt.assert_allclose(again.vertices, box.vertices, atol=1e-9)
        npt.assert_array_equal(again.faces, box.faces)

    def test_fan_triangulation_and_index_styles(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text(
            "# comment\n"
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
            "vn 0 0 1\n"
            "f 1/1/1 2/2/1 3/3/1 4/4/1\n"
        )
        mesh = load_obj(path)
        assert mesh.n_faces == 2
        npt.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])

    def test_negative_indices(self, tmp_path):
        path = tmp_path / "neg.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
        mesh = load_obj(path)
        npt.assert_array_equal(mesh.faces, [[0, 1, 2]])

    def test_degenerate_faces_dropped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "degen.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 2 0 0\n"
            "f 1 2 3\n"
            "f 1 1 2\n"   # repeated vertex
            "f 1 2 4\n"   # collinear
        )
        import logging
        with caplog.at_level(logging.WARNING, logger="meshloc.geometry"):
            mesh = load_obj(path)
        assert mesh.n_faces == 1
        assert any("degenerate" in r.message for r in caplog.records)

    def test_short_vertex_record_raises(self, tmp_path):
        # Skipping the short record would shift face 1 2 3 onto the wrong
        # vertices without any error.
        path = tmp_path / "short_v.obj"
        path.write_text("v 0 0 0\nv 1 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(ValueError, match=r"short_v\.obj:2: 'v' record"):
            load_obj(path)

    def test_short_face_record_raises(self, tmp_path):
        path = tmp_path / "short_f.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2\n")
        with pytest.raises(ValueError, match=r"short_f\.obj:5: 'f' record"):
            load_obj(path)

    @pytest.mark.parametrize("record, message", [
        ("v 1 x 0", "could not convert string to float: 'x'"),
        ("f 1 2 0", "face index out of range for 3 vertices"),
        ("f -4 -2 -1", "face index out of range for 3 vertices"),
        ("f 1/1 2.5 3", "invalid literal for int"),
        ("v nan 0 1", "non-finite vertex coordinate in 'v nan 0 1'"),
        ("v inf 0 0", "non-finite vertex coordinate in 'v inf 0 0'"),
    ])
    def test_bad_record_names_file_and_line(self, tmp_path, record, message):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{record}\nf 1 2 3\n")
        with pytest.raises(ValueError, match=rf"bad\.obj:4: {message}"):
            load_obj(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_raises(self, bad):
        # Not dropped as a degenerate face: the coordinate is at fault.
        with pytest.raises(InvalidConfigError, match="vertex coordinates must be finite"):
            TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [bad, 0, 1]],
                    [[0, 1, 2], [0, 1, 3]])

    @pytest.mark.parametrize("vertices, faces, message", [
        (np.zeros((3, 2)), [[0, 1, 2]], "vertices must have shape"),
        (np.eye(3), [0, 1, 2], "faces must have shape"),
        (np.eye(3), [[0, 1, 3]], "face indices out of range"),
    ], ids=["vertices-shape", "faces-shape", "face-index"])
    def test_malformed_arrays_are_refused_input(self, vertices, faces, message):
        with pytest.raises(InvalidConfigError, match=message):
            TriMesh(vertices, faces)

    def test_all_faces_degenerate_raises(self):
        with pytest.raises(InvalidConfigError):
            TriMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])


class TestPrimitives:
    def test_box_dimensions(self):
        mesh = box_mesh(0.1, 0.3, 0.2)
        assert mesh.n_faces == 12
        npt.assert_allclose(mesh.vertices.min(axis=0), [-0.05, -0.15, -0.1])
        npt.assert_allclose(mesh.vertices.max(axis=0), [0.05, 0.15, 0.1])

    def test_tetrahedron(self):
        # The shipped asset: an equilateral base of side 0.2 in z = 0, apex
        # on +z, written with 9 significant digits.
        path = Path(__file__).resolve().parent.parent / "assets" / "tetrahedron_0.2.obj"
        mesh = load_obj(path)
        assert mesh.n_faces == 4
        base = mesh.vertices[:3]
        npt.assert_array_equal(base[:, 2], 0.0)
        sides = np.linalg.norm(base - np.roll(base, 1, axis=0), axis=1)
        npt.assert_allclose(sides, 0.2, rtol=1e-8)
        npt.assert_array_equal(mesh.vertices[3], [0, 0, 0.2])
