"""Tests for the surface-fit index, pose errors, and trial aggregation."""

import numpy as np
import pytest

from meshloc import (
    InvalidConfigError,
    MeasurementModel,
    Pose,
    TriMesh,
    TrialReport,
    aggregate_reports,
    box_mesh,
    performance_index,
    pose_error,
    success_test,
)

from conftest import random_soup

from oracles import closest_point_brute, quat_angle_between, quat_from_matrix


def _subdivided(mesh: TriMesh, rounds: int) -> TriMesh:
    """Each triangle cut into four at its edge midpoints, ``rounds`` times."""
    tri = mesh.vertices[mesh.faces]
    for _ in range(rounds):
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        tri = np.concatenate([np.stack(t, axis=1) for t in
                              ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))])
    return TriMesh(tri.reshape(-1, 3), np.arange(3 * len(tri)).reshape(-1, 3))


def _report(final_index, position_error=None, orientation_error=None,
            success=False):
    return TrialReport(
        estimate=Pose.from_array(np.zeros(6)),
        index_trace=[final_index],
        final_index=final_index,
        position_error=position_error,
        orientation_error=orientation_error,
        elapsed=0.5,
        success=success,
        seed=0,
    )


class TestPerformanceIndex:
    def test_on_surface_points_identity_pose(self, box):
        contacts = np.array([
            [0.05, 0.0, 0.0], [0.0, 0.15, 0.05], [-0.02, 0.1, 0.1],
        ])
        assert performance_index(contacts, Pose.from_array(np.zeros(6)), box) == pytest.approx(0.0, abs=1e-12)

    def test_pure_offset_normal_to_face(self, box):
        # points hover 4 mm above the z+ face; identity estimate leaves
        # exactly that gap
        pts = np.array([[0.0, 0.0, 0.104], [0.02, -0.1, 0.104]])
        idx = performance_index(pts, Pose.from_array(np.zeros(6)), box)
        assert idx == pytest.approx(0.004, rel=1e-9)

    def test_estimated_pose_is_applied(self, box):
        # measurements generated from a posed box score zero under the
        # same pose and nonzero under identity
        pose = Pose.from_array(np.array([0.03, -0.02, 0.05, 0.4, -0.2, 0.9]))
        local = np.array([[0.05, 0.1, 0.0], [0.0, -0.15, 0.05]])
        world = local @ pose.rotation().T + pose.translation()
        assert performance_index(world, pose, box) == pytest.approx(0.0, abs=1e-12)
        assert performance_index(world, Pose.from_array(np.zeros(6)), box) > 1e-3

    def test_matches_brute_force_oracle(self, box):
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=0.2, size=(32, 3))
        pose = Pose.from_array(rng.normal(scale=0.3, size=6))
        R, t = pose.rotation(), pose.translation()
        local = (pts - t) @ R
        dists, _, _ = closest_point_brute(local, box.vertices, box.faces)
        assert performance_index(pts, pose, box) == pytest.approx(float(dists.mean()), rel=1e-12)

    def test_rigid_invariance(self, box):
        rng = np.random.default_rng(11)
        pts = rng.normal(scale=0.15, size=(16, 3))
        pose = Pose.from_array(rng.normal(scale=0.2, size=6))
        base = performance_index(pts, pose, box)

        motion = Pose.from_array(np.array([0.3, -0.1, 0.2, 0.5, 0.3, -0.7]))
        Rm, tm = motion.rotation(), motion.translation()
        moved_pts = pts @ Rm.T + tm
        moved_R = Rm @ pose.rotation()
        moved_t = Rm @ pose.translation() + tm
        # recompose the moved pose from its rotation matrix
        from meshloc import euler_from_matrix
        moved_pose = Pose.from_array(np.concatenate([moved_t, euler_from_matrix(moved_R)]))
        assert performance_index(moved_pts, moved_pose, box) == pytest.approx(base, rel=1e-9)

    def test_empty_measurements_rejected(self, box):
        with pytest.raises(InvalidConfigError):
            performance_index(np.empty((0, 3)), Pose.from_array(np.zeros(6)), box)

    @pytest.mark.parametrize("measurements, message", [
        ([], r"measurements must have shape \(L, 3\) with L >= 1"),
        (np.zeros((4, 2)), r"measurements must have shape \(L, 3\) with L >= 1"),
        ([[0.05, 0.0, 0.0], [0.0, 0.1]], "measurements must be an array of numbers"),
        ("x", "measurements must be an array of numbers"),
        ([["0.05", "0", "0"]], "measurements must be an array of numbers"),
        ([[np.nan, 0.0, 0.0]], "measurements must be finite"),
    ], ids=["empty-list", "two-columns", "ragged", "string", "numeric-strings", "nan"])
    def test_refuses_what_is_not_contacts(self, box, measurements, message):
        with pytest.raises(InvalidConfigError, match=f"^{message}"):
            performance_index(measurements, Pose(), box)

    @pytest.mark.parametrize("build", [lambda: box_mesh(0.1, 0.3, 0.2),
                                       lambda: random_soup(60, seed=4, scale=0.1),
                                       lambda: _subdivided(box_mesh(0.1, 0.3, 0.2), 2)],
                             ids=["box", "soup", "subdivided"])
    def test_is_the_mean_of_the_rated_distances(self, build):
        # The index reports exactly the distances the likelihood rates: one
        # query, so the same bytes.
        mesh = build()
        model = MeasurementModel(mesh, 1e-3)
        rng = np.random.default_rng(5)
        for _ in range(40):
            pose = Pose.from_array(np.r_[rng.normal(scale=0.05, size=3),
                                         rng.uniform(-np.pi, np.pi, 3)])
            ys = rng.normal(scale=0.12, size=(15, 3))
            rated = model.surface_distances(ys, pose.to_array()[None]).mean()
            assert performance_index(ys, pose, mesh) == rated


class TestPoseError:
    def test_identical_poses(self):
        p = Pose.from_array(np.array([0.1, -0.2, 0.3, 0.4, -0.5, 0.6]))
        assert pose_error(p, p) == (0.0, pytest.approx(0.0, abs=1e-8))

    def test_pure_quarter_yaw(self):
        a = Pose.from_array(np.zeros(6))
        b = Pose.from_array(np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi / 2]))
        dpos, dang = pose_error(a, b)
        assert dpos == 0.0
        assert dang == pytest.approx(np.pi / 2, rel=1e-12)

    def test_translation_only(self):
        a = Pose.from_array(np.array([1.0, 2.0, 2.0, 0.0, 0.0, 0.0]))
        b = Pose.from_array(np.zeros(6))
        assert pose_error(a, b) == (pytest.approx(3.0), pytest.approx(0.0, abs=1e-8))

    def test_angle_matches_quaternion_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = Pose.from_array(rng.normal(scale=1.0, size=6))
            b = Pose.from_array(rng.normal(scale=1.0, size=6))
            _, dang = pose_error(a, b)
            assert dang == pytest.approx(
                quat_angle_between(a.rotation(), b.rotation()), abs=1e-9)


class TestSuccessTest:
    def test_index_mode_threshold(self):
        assert success_test(_report(0.004)) is True
        assert success_test(_report(0.02)) is False

    def test_truth_mode_recomputes_errors_from_estimate(self):
        # truth mode compares estimate against truth directly; the index
        # plays no role
        truth = Pose.from_array(np.zeros(6))
        good = _report(1.0)
        good.estimate = Pose.from_array(np.array([0.001, 0, 0, 0.01, 0, 0]))
        bad_pos = _report(0.0)
        bad_pos.estimate = Pose.from_array(np.array([0.5, 0, 0, 0, 0, 0]))
        bad_ang = _report(0.0)
        bad_ang.estimate = Pose.from_array(np.array([0, 0, 0, 1.0, 0, 0]))
        assert success_test(good, truth=truth) is True
        assert success_test(bad_pos, truth=truth) is False
        assert success_test(bad_ang, truth=truth) is False


class TestAggregateReports:
    def test_summary_fields(self):
        reports = [_report(0.002, success=True), _report(0.03, success=False)]
        summary = aggregate_reports(reports)
        assert summary["trials"] == 2
        assert summary["successes"] == 1
        assert summary["reliability"] == 0.5
        assert summary["mean_final_index"] == pytest.approx(0.016)
        assert summary["median_final_index"] == pytest.approx(0.016)
        assert summary["max_final_index"] == pytest.approx(0.03)

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfigError, match="^no reports to aggregate$"):
            aggregate_reports([])
