import warnings

import numpy as np
import numpy.testing as npt
import pytest

from meshloc.errors import MeshlocError
from meshloc.geometry import Pose, box_mesh
from meshloc import unscented
from meshloc.ukf import MeasurementModel, log_likelihood_batch, ukf_step_batch

from conftest import random_soup
from oracles import closest_point_brute, kalman_update
from test_unscented import random_spd


class AffineStub:
    """Affine measurement map for exactness checks: h(x) = A x + b, with
    contact noise ``sigma_p^2 I``."""

    def __init__(self, A, b, sigma_p):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.sigma_p = sigma_p

    def predict_batch(self, y, poses):
        return np.atleast_2d(poses) @ self.A.T + self.b


class NanStub:
    sigma_p = 1.0

    def predict_batch(self, y, poses):
        return np.full((len(np.atleast_2d(poses)), 3), np.nan)


class Huge:
    """Predictions so far apart that their covariance overflows."""

    sigma_p = 1.0

    def predict_batch(self, y, poses):
        return 1e200 * poses[:, :3]


@pytest.fixture
def model(box):
    return MeasurementModel(mesh=box, sigma_p=0.01)


class TestLogLikelihood:
    def test_on_surface_is_zero(self, model):
        y = np.array([0.05, 0.0, 0.0])  # on the +x face at zero pose
        assert log_likelihood_batch(model, y[None], Pose().to_array()[None])[0, 0] == 0.0

    def test_one_sigma_distance(self, model):
        y = np.array([0.05 + model.sigma_p, 0.0, 0.0])
        got = log_likelihood_batch(model, y[None], Pose().to_array()[None])[0, 0]
        assert got == pytest.approx(-0.5, rel=1e-12)

    def test_matches_brute_force_distance(self, model, box):
        rng = np.random.default_rng(13)
        for _ in range(25):
            pose = rng.normal(scale=0.3, size=6)
            y = rng.normal(scale=0.3, size=3)
            got = log_likelihood_batch(model, y[None], pose[None])[0, 0]
            p = Pose.from_array(pose)
            local = p.rotation().T @ (y - p.translation())
            d, _, _ = closest_point_brute(local[None, :], box.vertices, box.faces)
            expected = -0.5 * (d[0] / model.sigma_p) ** 2
            npt.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_never_positive(self, model):
        rng = np.random.default_rng(19)
        poses = rng.normal(scale=0.5, size=(40, 6))
        ys = rng.normal(scale=0.5, size=(7, 3))
        ll = log_likelihood_batch(model, ys, poses)
        assert ll.shape == (40, 7)
        assert np.all(ll <= 0.0)

    def test_shift_invariance(self, model):
        rng = np.random.default_rng(23)
        shift = np.array([0.4, -0.2, 0.1])
        for _ in range(10):
            x = rng.normal(scale=0.2, size=6)
            y = rng.normal(scale=0.2, size=3)
            x_shifted = x.copy()
            x_shifted[:3] += shift
            npt.assert_allclose(
                log_likelihood_batch(model, (y + shift)[None], x_shifted[None])[0, 0],
                log_likelihood_batch(model, y[None], x[None])[0, 0],
                rtol=1e-9, atol=1e-12)

    def test_batch_matches_single(self, model):
        rng = np.random.default_rng(29)
        poses = rng.normal(scale=0.3, size=(6, 6))
        ys = rng.normal(scale=0.3, size=(4, 3))
        batch = log_likelihood_batch(model, ys, poses)
        for b in range(6):
            for k in range(4):
                single = log_likelihood_batch(model, ys[k:k + 1], poses[b:b + 1])
                assert batch[b, k] == single[0, 0]


class TestPredictMeasurement:
    def test_on_surface_returns_itself(self, model):
        y = np.array([0.02, 0.15, 0.05])  # on the +y face
        npt.assert_allclose(model.predict_batch(y, Pose().to_array()[None])[0], y,
                            atol=1e-12)

    def test_unit_box_half_extent(self):
        m = MeasurementModel(mesh=box_mesh(1.0, 1.0, 1.0), sigma_p=0.01)
        got = m.predict_batch(np.array([2.0, 0.0, 0.0]), Pose().to_array()[None])[0]
        npt.assert_allclose(got, [0.5, 0.0, 0.0], atol=1e-12)

    def test_rotated_pose(self):
        m = MeasurementModel(mesh=box_mesh(0.2, 0.4, 0.2), sigma_p=0.01)
        got = m.predict_batch(np.array([2.0, 0.0, 0.0]),
                              Pose(psi=np.pi / 2).to_array()[None])[0]
        npt.assert_allclose(got, [0.2, 0.0, 0.0], atol=1e-12)

    def test_distance_consistent_with_likelihood(self, model):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = rng.normal(scale=0.3, size=6)
            y = rng.normal(scale=0.4, size=3)
            h = model.predict_batch(y, x[None])[0]
            ll = log_likelihood_batch(model, y[None], x[None])[0, 0]
            npt.assert_allclose(np.sum((y - h) ** 2),
                                -2.0 * model.sigma_p ** 2 * ll,
                                rtol=1e-9, atol=1e-15)


class TestUkfStep:
    def test_affine_map_matches_kalman_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            x = rng.normal(size=6)
            P = random_spd(rng, 6, scale=0.5)
            Q = random_spd(rng, 6, scale=0.01)
            A = rng.normal(size=(3, 6))
            b = rng.normal(size=3)
            sigma_p = rng.uniform(0.05, 0.5)
            R = sigma_p ** 2 * np.eye(3)
            y = rng.normal(size=3)
            stub = AffineStub(A, b, sigma_p)
            got_m, got_P = ukf_step_batch(x[None], P[None], y, stub, Q)
            exp_m, exp_P = kalman_update(x, P, y, A, b, R, Q)
            npt.assert_allclose(got_m[0], exp_m, rtol=1e-8, atol=1e-10)
            npt.assert_allclose(got_P[0], exp_P, rtol=1e-8, atol=1e-10)

    def test_zero_cov_touching_particle_is_fixed_point(self, model):
        # Particle already explains the contact: no innovation, no motion.
        y = np.array([0.05, 0.0, 0.0])
        mean, cov = ukf_step_batch(np.zeros((1, 6)), np.zeros((1, 6, 6)), y, model,
                                   Q=np.zeros((6, 6)))
        npt.assert_allclose(mean[0], np.zeros(6), atol=1e-9)
        assert np.abs(cov[0]).max() < 1e-9

    def test_covariance_never_grows_past_prediction(self, model):
        rng = np.random.default_rng(43)
        Q = np.diag([1e-5] * 3 + [1e-4] * 3)
        for _ in range(10):
            x = rng.normal(scale=0.2, size=6)
            P = random_spd(rng, 6, scale=0.05)
            y = rng.normal(scale=0.3, size=3)
            _, P_corr = ukf_step_batch(x[None], P[None], y, model, Q=Q)
            gap_eigs = np.linalg.eigvalsh(P + Q - P_corr[0])
            assert gap_eigs.min() > -1e-9

    def test_correction_output_is_valid_covariance(self, model):
        rng = np.random.default_rng(47)
        Q = np.diag([1e-5] * 3 + [1e-4] * 3)
        poses = rng.normal(scale=0.3, size=(30, 6))
        covs = np.stack([random_spd(rng, 6, scale=0.05) for _ in range(30)])
        y = np.array([0.1, 0.05, -0.02])
        means, P_corr = ukf_step_batch(poses, covs, y, model, Q)
        assert np.isfinite(means).all()
        npt.assert_allclose(P_corr, np.swapaxes(P_corr, -1, -2), atol=1e-10)
        assert np.linalg.eigvalsh(P_corr)[:, 0].min() >= -1e-10

    def test_pulls_particle_toward_contact(self, model):
        # A particle whose surface is far from y must move closer to it.
        y = np.array([0.2, 0.0, 0.0])
        x = np.zeros(6)
        P = np.diag([0.01] * 3 + [0.1] * 3)
        mean, _ = ukf_step_batch(x[None], P[None], y, model, Q=np.zeros((6, 6)))
        d_before = model.surface_distances(y[None, :], x[None, :])[0, 0]
        d_after = model.surface_distances(y[None, :], mean)[0, 0]
        assert d_after < d_before

    def test_batch_matches_single(self, model):
        rng = np.random.default_rng(53)
        Q = np.diag([1e-5] * 3 + [1e-4] * 3)
        means = rng.normal(scale=0.2, size=(8, 6))
        covs = np.stack([random_spd(rng, 6, scale=0.02) for _ in range(8)])
        y = np.array([0.07, -0.1, 0.04])
        bm, bP = ukf_step_batch(means, covs, y, model, Q)
        for i in range(8):
            sm, sP = ukf_step_batch(means[i:i + 1], covs[i:i + 1], y, model, Q)
            npt.assert_array_equal(bm[i], sm[0])
            npt.assert_array_equal(bP[i], sP[0])

    def test_non_finite_innovation_raises(self):
        for stub in NanStub(), Huge():
            with pytest.raises(MeshlocError, match="^innovation covariance is not finite$"):
                ukf_step_batch(np.zeros((1, 6)), np.eye(6)[None], np.zeros(3), stub,
                               Q=np.zeros((6, 6)))


class FlatBeyond:
    """The model's nearest points, but the origin for poses with x > 5, and
    no contact noise: a particle out there has zero innovation covariance."""

    sigma_p = 0.0

    def __init__(self, model):
        self.model = model

    def predict_batch(self, y, poses):
        out = self.model.predict_batch(y, poses)
        out[poses[:, 0] > 5.0] = 0.0
        return out


class TestRowIndependence:
    """A row of `ukf_step_batch` does not depend on the other rows of its
    batch, bit for bit: `mupf.step` corrects only the distinct resampling
    parents and gathers the rows back to their copies."""

    Q = np.diag([1e-5] * 3 + [1e-4] * 3)
    Y = np.array([0.07, -0.1, 0.04])

    @pytest.fixture(params=["box", "soup"])
    def mesh_model(self, request, box):
        mesh = box if request.param == "box" else random_soup(300, seed=5, scale=0.3)
        return MeasurementModel(mesh=mesh, sigma_p=0.01)

    @staticmethod
    def _particles(n, seed):
        rng = np.random.default_rng(seed)
        means = rng.normal(scale=0.2, size=(n, 6))
        covs = np.stack([random_spd(rng, 6, scale=0.02) for _ in range(n)])
        return means, covs

    def _assert_rows_independent(self, means, covs, model, Q):
        """Every row alone, and a gather with repeats, equal the batch."""
        full = ukf_step_batch(means, covs, self.Y, model, Q)
        for i in range(len(means)):
            alone = ukf_step_batch(means[i:i + 1], covs[i:i + 1], self.Y, model, Q)
            for got, want in zip(alone, full):
                npt.assert_array_equal(got[0], want[i])
        idx = np.array([3, 3, 0, len(means) - 1, 3, 1, 0])
        gathered = ukf_step_batch(means[idx], covs[idx], self.Y, model, Q)
        for got, want in zip(gathered, full):
            npt.assert_array_equal(got, want[idx])
        return full

    def test_rows_alone_and_gathered_equal_the_batch(self, mesh_model):
        means, covs = self._particles(40, seed=61)
        self._assert_rows_independent(means, covs, mesh_model, self.Q)

    def test_singular_innovation_row_raises(self, box):
        # Row 2's innovation covariance is exactly zero, since sigma_p is zero:
        # the gain's one batched solve refuses the whole batch.
        model = FlatBeyond(MeasurementModel(mesh=box, sigma_p=0.01))
        means, covs = self._particles(12, seed=67)
        means[2, 0] = 100.0
        with pytest.raises(MeshlocError, match="^innovation covariance is singular$"):
            ukf_step_batch(means, covs, self.Y, model, self.Q)

    def test_overflowing_gain_raises(self):
        # S is finite and invertible but subnormal, so the gain Gamma S^-1
        # overflows; no floating-point warning comes first.
        class Tiny:
            sigma_p = 1e-160    # contact noise 1e-320 I

            def predict_batch(self, y, poses):
                return 1e-310 * poses[:, :3]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshlocError,
                               match="^innovation covariance gives a non-finite gain$"):
                ukf_step_batch(np.zeros((1, 6)), 1e300 * np.eye(6)[None], self.Y, Tiny(),
                               np.zeros((6, 6)))

    def test_jittered_cholesky_fallback_keeps_the_other_rows(self, box, monkeypatch):
        # Row 4's predicted covariance is zero, so the batched Cholesky
        # fails and `sigma_points_batch` factors row by row, row 4 through
        # its clipped eigenvalues.
        model = MeasurementModel(mesh=box, sigma_p=0.01)
        means, covs = self._particles(12, seed=71)
        covs[4] = 0.0
        factored = []
        factor = unscented._psd_sqrt

        def counted(mat):
            factored.append(1)
            return factor(mat)
        monkeypatch.setattr(unscented, "_psd_sqrt", counted)
        Q = np.zeros((6, 6))
        full = self._assert_rows_independent(means, covs, model, Q)
        factored.clear()
        ukf_step_batch(means, covs, self.Y, model, Q)
        assert len(factored) == 12
        keep = np.arange(12) != 4
        batched = ukf_step_batch(means[keep], covs[keep], self.Y, model, Q)
        for got, want in zip(batched, full):
            npt.assert_array_equal(got, want[keep])
