import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshloc.errors import NotPositiveDefiniteError
from meshloc.unscented import _lam, _weights, sigma_points_batch, unscented_transform

from oracles import affine_transform_moments


def random_spd(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


def sigma_points(mean, cov):
    """Sigma points of one Gaussian: row 0 of a one-row batch."""
    return sigma_points_batch(np.asarray(mean)[None], np.asarray(cov)[None])[0]


def transform_one(mean, cov, g):
    """``unscented_transform`` of one Gaussian: row 0 of each output."""
    y, Py, Pxy = unscented_transform(np.asarray(mean)[None], np.asarray(cov)[None], g)
    return y[0], Py[0], Pxy[0]


def nonlinear_g(X):
    return np.stack([np.sin(X[:, 0]), X[:, 1] * X[:, 2], np.exp(-X[:, 3] ** 2)],
                    axis=1)


class TestSutParams:
    """The fixed parameters alpha = 1, k = 2 and beta = 30."""

    def test_lambda_formula(self):
        # lam = alpha^2 (n + k) - n = 2 for every n.
        assert _lam(1) == 2.0
        assert _lam(6) == 2.0

    def test_frozen_weights_n1(self):
        # n=1: lam=2, points at 0, +sqrt(3), -sqrt(3); beta=30 lifts W0_cov
        # to 2/3 + 30.
        w_mean, w_cov = _weights(1)
        npt.assert_allclose(w_mean, [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], rtol=1e-15)
        npt.assert_allclose(w_cov, [2.0 / 3.0 + 30.0, 1.0 / 6.0, 1.0 / 6.0], rtol=1e-15)
        points = sigma_points(np.zeros(1), np.eye(1))
        npt.assert_allclose(points.ravel(), [0.0, np.sqrt(3.0), -np.sqrt(3.0)],
                            rtol=1e-15, atol=1e-15)

    def test_frozen_weights_n6(self):
        # n=6: lam=2, W0_mean=0.25, Wi=1/16; beta=30 lifts W0_cov to 30.25.
        w_mean, w_cov = _weights(6)
        assert w_mean[0] == pytest.approx(0.25, rel=1e-15)
        npt.assert_allclose(w_mean[1:], np.full(12, 1.0 / 16.0), rtol=1e-15)
        assert w_cov[0] == pytest.approx(30.25, rel=1e-15)
        npt.assert_allclose(w_cov[1:], np.full(12, 1.0 / 16.0), rtol=1e-15)

    def test_mean_weights_sum_to_one(self):
        for n in range(1, 7):
            w_mean, _ = _weights(n)
            assert w_mean.sum() == pytest.approx(1.0, rel=1e-12)


class TestSigmaPoints:
    def test_spd_reconstruction(self):
        rng = np.random.default_rng(2)
        w_mean, w_cov = _weights(6)
        for _ in range(20):
            mean = rng.normal(size=6)
            cov = random_spd(rng, 6)
            points = sigma_points(mean, cov)
            got_mean = w_mean @ points
            d = points - got_mean
            got_cov = np.einsum("s,si,sj->ij", w_cov, d, d)
            npt.assert_allclose(got_mean, mean, atol=1e-10 * np.abs(mean).max())
            npt.assert_allclose(got_cov, cov, rtol=1e-8, atol=1e-10)

    def test_symmetric_spread(self):
        rng = np.random.default_rng(3)
        mean = rng.normal(size=4)
        points = sigma_points(mean, random_spd(rng, 4))
        plus = points[1:5] - mean
        minus = points[5:] - mean
        npt.assert_allclose(plus, -minus, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        means = rng.normal(size=(5, 6))
        covs = np.stack([random_spd(rng, 6) for _ in range(5)])
        batch = sigma_points_batch(means, covs)
        moments = unscented_transform(means, covs, nonlinear_g)
        for i in range(5):
            single = sigma_points_batch(means[i:i + 1], covs[i:i + 1])
            npt.assert_array_equal(batch[i], single[0])
            single_moments = unscented_transform(means[i:i + 1], covs[i:i + 1],
                                                 nonlinear_g)
            for got, want in zip(single_moments, moments):
                npt.assert_array_equal(got[0], want[i])

    def test_jittered_row_keeps_the_other_rows(self):
        # One semidefinite row sends the whole batch through the per-row
        # jittered Cholesky; every row still equals its batch without it.
        rng = np.random.default_rng(6)
        means = rng.normal(size=(7, 6))
        covs = np.stack([random_spd(rng, 6) for _ in range(7)])
        covs[3] = np.diag([1.0] * 5 + [0.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(covs[3])
        batch = sigma_points_batch(means, covs)
        keep = np.arange(7) != 3
        npt.assert_array_equal(batch[keep], sigma_points_batch(means[keep], covs[keep]))
        for i in range(7):
            npt.assert_array_equal(batch[i], sigma_points_batch(means[i:i + 1], covs[i:i + 1])[0])

    def test_psd_singular_gets_jitter(self):
        cov = np.diag([1.0, 1.0, 0.0])  # semidefinite
        points = sigma_points(np.zeros(3), cov)
        assert np.isfinite(points).all()

    def test_zero_covariance_collapses_to_mean(self):
        mean = np.array([0.5, -1.0, 2.0])
        points = sigma_points(mean, np.zeros((3, 3)))
        npt.assert_allclose(points, np.tile(mean, (7, 1)), atol=1e-7)

    def test_negative_definite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            sigma_points(np.zeros(3), -np.eye(3))


class TestUnscentedTransform:
    def test_identity_map(self):
        rng = np.random.default_rng(5)
        mean = rng.normal(size=6)
        cov = random_spd(rng, 6)
        y, Py, Pxy = transform_one(mean, cov, lambda X: X)
        npt.assert_allclose(y, mean, atol=1e-12)
        npt.assert_allclose(Py, cov, rtol=1e-8, atol=1e-10)
        npt.assert_allclose(Pxy, cov, rtol=1e-8, atol=1e-10)

    def test_affine_exactness(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            mean = rng.normal(size=6)
            cov = random_spd(rng, 6)
            A = rng.normal(size=(3, 6))
            b = rng.normal(size=3)
            y, Py, Pxy = transform_one(mean, cov, lambda X: X @ A.T + b)
            ey, ePy, ePxy = affine_transform_moments(mean, cov, A, b)
            npt.assert_allclose(y, ey, rtol=1e-8, atol=1e-12)
            npt.assert_allclose(Py, ePy, rtol=1e-8, atol=1e-12)
            npt.assert_allclose(Pxy, ePxy, rtol=1e-8, atol=1e-12)

    def test_scalar_square_moment(self):
        # For x ~ N(0, 1) and g(x) = x^2 the sigma points {0, +sqrt(3),
        # -sqrt(3)} with weights {2/3, 1/6, 1/6} give E[g] = 1 exactly.
        y, _, _ = transform_one(np.zeros(1), np.eye(1), lambda X: X ** 2)
        npt.assert_allclose(y, [1.0], rtol=1e-12)

    def test_output_cov_symmetric(self):
        rng = np.random.default_rng(8)
        mean, cov = rng.normal(size=6), random_spd(rng, 6)
        _, Py, _ = transform_one(mean, cov, nonlinear_g)
        npt.assert_array_equal(Py, Py.T)
        # Raw accumulation before symmetrization is already near-symmetric.
        w_mean, w_cov = _weights(6)
        Y = nonlinear_g(sigma_points(mean, cov))
        ym = w_mean @ Y
        raw = np.einsum("s,si,sj->ij", w_cov, Y - ym, Y - ym)
        assert np.abs(raw - raw.T).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.floats(1e-2, 1e2))
    def test_affine_exactness_property(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        mean = rng.normal(size=n)
        cov = random_spd(rng, n, scale)
        A = rng.normal(size=(2, n))
        b = rng.normal(size=2)
        y, Py, Pxy = transform_one(mean, cov, lambda X: X @ A.T + b)
        ey, ePy, ePxy = affine_transform_moments(mean, cov, A, b)
        npt.assert_allclose(y, ey, rtol=1e-8, atol=1e-10)
        npt.assert_allclose(Py, ePy, rtol=1e-8, atol=1e-10 * scale)
        npt.assert_allclose(Pxy, ePxy, rtol=1e-8, atol=1e-10 * scale)
