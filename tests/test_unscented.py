import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshloc.errors import NotPositiveDefiniteError
from meshloc.unscented import SutParams, sigma_points_batch, unscented_transform

from oracles import affine_transform_moments


def random_spd(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


def sigma_points(mean, cov, params):
    """Sigma points of one Gaussian: row 0 of a one-row batch."""
    return sigma_points_batch(np.asarray(mean)[None], np.asarray(cov)[None], params)[0]


def transform_one(mean, cov, g, params):
    """``unscented_transform`` of one Gaussian: row 0 of each output."""
    y, Py, Pxy = unscented_transform(np.asarray(mean)[None], np.asarray(cov)[None],
                                     g, params)
    return y[0], Py[0], Pxy[0]


def nonlinear_g(X):
    return np.stack([np.sin(X[:, 0]), X[:, 1] * X[:, 2], np.exp(-X[:, 3] ** 2)],
                    axis=1)


class TestSutParams:
    def test_lambda_formula(self):
        p = SutParams(alpha=1.0, k=2.0, beta=0.0)
        assert p.lam(1) == pytest.approx(2.0)
        p6 = SutParams(alpha=1.0, k=2.0, beta=30.0)
        assert p6.lam(6) == pytest.approx(2.0)

    def test_frozen_weights_n1(self):
        # alpha=1, k=2, beta=0, n=1: lam=2, points at 0, +sqrt(3), -sqrt(3).
        p = SutParams(alpha=1.0, k=2.0, beta=0.0)
        w_mean, w_cov = p.weights(1)
        npt.assert_allclose(w_mean, [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], rtol=1e-15)
        npt.assert_allclose(w_cov, [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], rtol=1e-15)
        points = sigma_points(np.zeros(1), np.eye(1), p)
        npt.assert_allclose(points.ravel(), [0.0, np.sqrt(3.0), -np.sqrt(3.0)],
                            rtol=1e-15, atol=1e-15)

    def test_frozen_weights_n6(self):
        # alpha=1, k=2, n=6: lam=2, W0_mean=0.25, Wi=1/16; beta=30 lifts
        # W0_cov to 30.25.
        p = SutParams(alpha=1.0, k=2.0, beta=30.0)
        w_mean, w_cov = p.weights(6)
        assert w_mean[0] == pytest.approx(0.25, rel=1e-15)
        npt.assert_allclose(w_mean[1:], np.full(12, 1.0 / 16.0), rtol=1e-15)
        assert w_cov[0] == pytest.approx(30.25, rel=1e-15)
        npt.assert_allclose(w_cov[1:], np.full(12, 1.0 / 16.0), rtol=1e-15)

    def test_mean_weights_sum_to_one(self):
        for alpha, k, beta, n in [(1.0, 2.0, 30.0, 6), (0.5, 3.0, 2.0, 4),
                                  (1.0, 0.0, 0.0, 2)]:
            w_mean, _ = SutParams(alpha, k, beta).weights(n)
            assert w_mean.sum() == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SutParams(alpha=0.0)
        with pytest.raises(ValueError):
            SutParams(k=-1.0)
        for bad in (dict(alpha=np.nan), dict(k=np.nan), dict(beta=np.inf)):
            with pytest.raises(ValueError):
                SutParams(**bad)


class TestSigmaPoints:
    def test_spd_reconstruction(self):
        rng = np.random.default_rng(2)
        p = SutParams(alpha=1.0, k=2.0, beta=0.0)
        w_mean, w_cov = p.weights(6)
        for _ in range(20):
            mean = rng.normal(size=6)
            cov = random_spd(rng, 6)
            points = sigma_points(mean, cov, p)
            got_mean = w_mean @ points
            d = points - got_mean
            got_cov = np.einsum("s,si,sj->ij", w_cov, d, d)
            npt.assert_allclose(got_mean, mean, atol=1e-10 * np.abs(mean).max())
            npt.assert_allclose(got_cov, cov, rtol=1e-8, atol=1e-10)

    def test_symmetric_spread(self):
        rng = np.random.default_rng(3)
        p = SutParams()
        mean = rng.normal(size=4)
        points = sigma_points(mean, random_spd(rng, 4), p)
        plus = points[1:5] - mean
        minus = points[5:] - mean
        npt.assert_allclose(plus, -minus, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        p = SutParams()
        means = rng.normal(size=(5, 6))
        covs = np.stack([random_spd(rng, 6) for _ in range(5)])
        batch = sigma_points_batch(means, covs, p)
        moments = unscented_transform(means, covs, nonlinear_g, p)
        for i in range(5):
            single = sigma_points_batch(means[i:i + 1], covs[i:i + 1], p)
            npt.assert_array_equal(batch[i], single[0])
            single_moments = unscented_transform(means[i:i + 1], covs[i:i + 1],
                                                 nonlinear_g, p)
            for got, want in zip(single_moments, moments):
                npt.assert_array_equal(got[0], want[i])

    def test_jittered_row_keeps_the_other_rows(self):
        # One semidefinite row sends the whole batch through the per-row
        # jittered Cholesky; every row still equals its batch without it.
        rng = np.random.default_rng(6)
        p = SutParams()
        means = rng.normal(size=(7, 6))
        covs = np.stack([random_spd(rng, 6) for _ in range(7)])
        covs[3] = np.diag([1.0] * 5 + [0.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(covs[3])
        batch = sigma_points_batch(means, covs, p)
        keep = np.arange(7) != 3
        npt.assert_array_equal(batch[keep], sigma_points_batch(means[keep], covs[keep], p))
        for i in range(7):
            npt.assert_array_equal(batch[i], sigma_points_batch(means[i:i + 1],
                                                                covs[i:i + 1], p)[0])

    def test_psd_singular_gets_jitter(self):
        p = SutParams()
        cov = np.diag([1.0, 1.0, 0.0])  # semidefinite
        points = sigma_points(np.zeros(3), cov, p)
        assert np.isfinite(points).all()

    def test_zero_covariance_collapses_to_mean(self):
        p = SutParams()
        mean = np.array([0.5, -1.0, 2.0])
        points = sigma_points(mean, np.zeros((3, 3)), p)
        npt.assert_allclose(points, np.tile(mean, (7, 1)), atol=1e-7)

    def test_negative_definite_raises(self):
        p = SutParams()
        with pytest.raises(NotPositiveDefiniteError):
            sigma_points(np.zeros(3), -np.eye(3), p)


class TestUnscentedTransform:
    def test_identity_map(self):
        rng = np.random.default_rng(5)
        p = SutParams()
        mean = rng.normal(size=6)
        cov = random_spd(rng, 6)
        y, Py, Pxy = transform_one(mean, cov, lambda X: X, p)
        npt.assert_allclose(y, mean, atol=1e-12)
        npt.assert_allclose(Py, cov, rtol=1e-8, atol=1e-10)
        npt.assert_allclose(Pxy, cov, rtol=1e-8, atol=1e-10)

    def test_affine_exactness(self):
        rng = np.random.default_rng(6)
        p = SutParams(alpha=1.0, k=2.0, beta=0.0)
        for _ in range(25):
            mean = rng.normal(size=6)
            cov = random_spd(rng, 6)
            A = rng.normal(size=(3, 6))
            b = rng.normal(size=3)
            y, Py, Pxy = transform_one(mean, cov, lambda X: X @ A.T + b, p)
            ey, ePy, ePxy = affine_transform_moments(mean, cov, A, b)
            npt.assert_allclose(y, ey, rtol=1e-8, atol=1e-12)
            npt.assert_allclose(Py, ePy, rtol=1e-8, atol=1e-12)
            npt.assert_allclose(Pxy, ePxy, rtol=1e-8, atol=1e-12)

    def test_scalar_square_moment(self):
        # For x ~ N(0, 1) and g(x) = x^2 the sigma points {0, +sqrt(3),
        # -sqrt(3)} with weights {2/3, 1/6, 1/6} give E[g] = 1 exactly.
        p = SutParams(alpha=1.0, k=2.0, beta=0.0)
        y, _, _ = transform_one(np.zeros(1), np.eye(1), lambda X: X ** 2, p)
        npt.assert_allclose(y, [1.0], rtol=1e-12)

    def test_output_cov_symmetric(self):
        rng = np.random.default_rng(8)
        p = SutParams(beta=30.0)
        mean, cov = rng.normal(size=6), random_spd(rng, 6)
        _, Py, _ = transform_one(mean, cov, nonlinear_g, p)
        npt.assert_array_equal(Py, Py.T)
        # Raw accumulation before symmetrization is already near-symmetric.
        w_mean, w_cov = p.weights(6)
        Y = nonlinear_g(sigma_points(mean, cov, p))
        ym = w_mean @ Y
        raw = np.einsum("s,si,sj->ij", w_cov, Y - ym, Y - ym)
        assert np.abs(raw - raw.T).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.1, 2.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0),
           st.integers(1, 6))
    def test_affine_exactness_property(self, alpha, k, beta, n):
        rng = np.random.default_rng(9)
        p = SutParams(alpha=alpha, k=k, beta=beta)
        mean = rng.normal(size=n)
        cov = random_spd(rng, n)
        A = rng.normal(size=(2, n))
        b = rng.normal(size=2)
        y, _, _ = transform_one(mean, cov, lambda X: X @ A.T + b, p)
        npt.assert_allclose(y, A @ mean + b, rtol=1e-8, atol=1e-10)
