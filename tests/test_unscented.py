import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshloc.errors import NotPositiveDefiniteError
from meshloc.unscented import (
    SigmaPointSet,
    SutParams,
    make_sigma_points,
    propagate,
    sigma_points_batch,
)

from oracles import affine_transform_moments


def random_spd(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


class TestSutParams:
    def test_lambda_formula(self):
        p = SutParams(alpha=1.0, k=2.0, beta=0.0, n_x=1)
        assert p.lam == pytest.approx(2.0)
        p6 = SutParams(alpha=1.0, k=2.0, beta=30.0, n_x=6)
        assert p6.lam == pytest.approx(2.0)

    def test_frozen_weights_n1(self):
        # alpha=1, k=2, beta=0, n=1: lam=2, points at 0, +sqrt(3), -sqrt(3).
        p = SutParams(alpha=1.0, k=2.0, beta=0.0, n_x=1)
        w_mean, w_cov = p.weights()
        npt.assert_allclose(w_mean, [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], rtol=1e-15)
        npt.assert_allclose(w_cov, [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], rtol=1e-15)
        sp = make_sigma_points(np.zeros(1), np.eye(1), p)
        npt.assert_allclose(sp.points.ravel(), [0.0, np.sqrt(3.0), -np.sqrt(3.0)],
                            rtol=1e-15, atol=1e-15)

    def test_frozen_weights_n6(self):
        # alpha=1, k=2, n=6: lam=2, W0_mean=0.25, Wi=1/16; beta=30 lifts
        # W0_cov to 30.25.
        p = SutParams(alpha=1.0, k=2.0, beta=30.0, n_x=6)
        w_mean, w_cov = p.weights()
        assert w_mean[0] == pytest.approx(0.25, rel=1e-15)
        npt.assert_allclose(w_mean[1:], np.full(12, 1.0 / 16.0), rtol=1e-15)
        assert w_cov[0] == pytest.approx(30.25, rel=1e-15)
        npt.assert_allclose(w_cov[1:], np.full(12, 1.0 / 16.0), rtol=1e-15)

    def test_mean_weights_sum_to_one(self):
        for alpha, k, beta, n in [(1.0, 2.0, 30.0, 6), (0.5, 3.0, 2.0, 4),
                                  (1.0, 0.0, 0.0, 2)]:
            w_mean, _ = SutParams(alpha, k, beta, n).weights()
            assert w_mean.sum() == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SutParams(alpha=0.0)
        with pytest.raises(ValueError):
            SutParams(k=-1.0)
        with pytest.raises(ValueError):
            SutParams(n_x=0)
        for bad in (dict(alpha=np.nan), dict(k=np.nan), dict(beta=np.inf)):
            with pytest.raises(ValueError):
                SutParams(**bad)


class TestSigmaPoints:
    def test_spd_reconstruction(self):
        rng = np.random.default_rng(2)
        p = SutParams(alpha=1.0, k=2.0, beta=0.0, n_x=6)
        for _ in range(20):
            mean = rng.normal(size=6)
            cov = random_spd(rng, 6)
            sp = make_sigma_points(mean, cov, p)
            got_mean = sp.w_mean @ sp.points
            d = sp.points - got_mean
            got_cov = np.einsum("s,si,sj->ij", sp.w_cov, d, d)
            npt.assert_allclose(got_mean, mean, atol=1e-10 * np.abs(mean).max())
            npt.assert_allclose(got_cov, cov, rtol=1e-8, atol=1e-10)

    def test_symmetric_spread(self):
        rng = np.random.default_rng(3)
        p = SutParams(n_x=4)
        mean = rng.normal(size=4)
        sp = make_sigma_points(mean, random_spd(rng, 4), p)
        plus = sp.points[1:5] - mean
        minus = sp.points[5:] - mean
        npt.assert_allclose(plus, -minus, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        p = SutParams(n_x=6)
        means = rng.normal(size=(5, 6))
        covs = np.stack([random_spd(rng, 6) for _ in range(5)])
        batch = sigma_points_batch(means, covs, p)
        for i in range(5):
            single = make_sigma_points(means[i], covs[i], p)
            npt.assert_array_equal(batch[i], single.points)

    def test_psd_singular_gets_jitter(self):
        p = SutParams(n_x=3)
        cov = np.diag([1.0, 1.0, 0.0])  # semidefinite
        sp = make_sigma_points(np.zeros(3), cov, p)
        assert np.isfinite(sp.points).all()

    def test_zero_covariance_collapses_to_mean(self):
        p = SutParams(n_x=3)
        mean = np.array([0.5, -1.0, 2.0])
        sp = make_sigma_points(mean, np.zeros((3, 3)), p)
        npt.assert_allclose(sp.points, np.tile(mean, (7, 1)), atol=1e-7)

    def test_negative_definite_raises(self):
        p = SutParams(n_x=3)
        with pytest.raises(NotPositiveDefiniteError):
            make_sigma_points(np.zeros(3), -np.eye(3), p)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_sigma_points(np.zeros(3), np.eye(3), SutParams(n_x=6))


class TestPropagate:
    def test_identity_map(self):
        rng = np.random.default_rng(5)
        p = SutParams(n_x=6)
        mean = rng.normal(size=6)
        cov = random_spd(rng, 6)
        sp = make_sigma_points(mean, cov, p)
        y, Py, Pxy = propagate(sp, lambda x: x)
        npt.assert_allclose(y, mean, atol=1e-12)
        npt.assert_allclose(Py, cov, rtol=1e-8, atol=1e-10)
        npt.assert_allclose(Pxy, cov, rtol=1e-8, atol=1e-10)

    def test_affine_exactness(self):
        rng = np.random.default_rng(6)
        p = SutParams(alpha=1.0, k=2.0, beta=0.0, n_x=6)
        for _ in range(25):
            mean = rng.normal(size=6)
            cov = random_spd(rng, 6)
            A = rng.normal(size=(3, 6))
            b = rng.normal(size=3)
            sp = make_sigma_points(mean, cov, p)
            y, Py, Pxy = propagate(sp, lambda x: A @ x + b)
            ey, ePy, ePxy = affine_transform_moments(mean, cov, A, b)
            npt.assert_allclose(y, ey, rtol=1e-8, atol=1e-12)
            npt.assert_allclose(Py, ePy, rtol=1e-8, atol=1e-12)
            npt.assert_allclose(Pxy, ePxy, rtol=1e-8, atol=1e-12)

    def test_scalar_square_moment(self):
        # For x ~ N(0, 1) and g(x) = x^2 the sigma points {0, +sqrt(3),
        # -sqrt(3)} with weights {2/3, 1/6, 1/6} give E[g] = 1 exactly.
        p = SutParams(alpha=1.0, k=2.0, beta=0.0, n_x=1)
        sp = make_sigma_points(np.zeros(1), np.eye(1), p)
        y, _, _ = propagate(sp, lambda x: x ** 2)
        npt.assert_allclose(y, [1.0], rtol=1e-12)

    def test_output_cov_symmetric(self):
        rng = np.random.default_rng(8)
        p = SutParams(n_x=6, beta=30.0)
        sp = make_sigma_points(rng.normal(size=6), random_spd(rng, 6), p)
        g = lambda x: np.array([np.sin(x[0]), x[1] * x[2], np.exp(-x[3] ** 2)])
        _, Py, _ = propagate(sp, g)
        npt.assert_array_equal(Py, Py.T)
        # Raw accumulation before symmetrization is already near-symmetric.
        Y = np.asarray([g(x) for x in sp.points])
        ym = sp.w_mean @ Y
        raw = np.einsum("s,si,sj->ij", sp.w_cov, Y - ym, Y - ym)
        assert np.abs(raw - raw.T).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.1, 2.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0),
           st.integers(1, 6))
    def test_affine_exactness_property(self, alpha, k, beta, n):
        rng = np.random.default_rng(9)
        p = SutParams(alpha=alpha, k=k, beta=beta, n_x=n)
        mean = rng.normal(size=n)
        cov = random_spd(rng, n)
        A = rng.normal(size=(2, n))
        b = rng.normal(size=2)
        sp = make_sigma_points(mean, cov, p)
        y, _, _ = propagate(sp, lambda x: A @ x + b)
        npt.assert_allclose(y, A @ mean + b, rtol=1e-8, atol=1e-10)
