"""Tests for the memory particle filter: config, bookkeeping, reductions."""

import numpy as np
import pytest

from oracles import gaussian_logpdf, upf_step

from meshloc import (
    FilterConfig,
    InvalidConfigError,
    MeasurementModel,
    Pose,
    ScenarioSpec,
    SutParams,
    box_mesh,
    extract_pose,
    extraction_exponents,
    init,
    run,
    sample_contacts,
    step,
    window_span,
)
from meshloc.mupf import (
    FilterState,
    StepSnapshot,
    _normalize_log_weights,
    _resample_indices,
    _rng_for_step,
)


def _measurements(mesh, pose_vec, n, sigma, seed=0, subset=None):
    spec = ScenarioSpec(mesh_path=None, true_pose=Pose.from_array(np.asarray(pose_vec)),
                        n_measurements=n, noise_sigma=sigma,
                        face_subset=subset, seed=seed)
    meas, _ = sample_contacts(spec, mesh)
    return meas


def _small_config(**kw):
    defaults = dict(n_particles=50, memory=3, sigma_p=0.01, seed=0,
                    prior_mean=np.array([0.02, -0.01, 0.03, 0.4, -0.25, 0.6]),
                    prior_cov=np.diag([0.01] * 3 + [0.1] * 3))
    defaults.update(kw)
    return FilterConfig(**defaults)


class TestFilterConfig:
    def test_default_profile(self):
        cfg = FilterConfig()
        assert cfg.n_particles == 700
        assert cfg.memory == 10
        assert np.array_equal(np.diag(cfg.process_noise),
                              [1e-5, 1e-5, 1e-5, 1e-4, 1e-4, 1e-4])
        assert np.array_equal(np.diag(cfg.prior_cov)[:3], [0.04] * 3)
        assert np.allclose(np.diag(cfg.prior_cov)[3:],
                           [np.pi ** 2, (np.pi / 2) ** 2, np.pi ** 2])
        assert cfg.sigma_p == 1e-4
        assert cfg.sigma_p_is_variance is False
        assert cfg.effective_sigma_p == 1e-4
        assert (cfg.sut.alpha, cfg.sut.k, cfg.sut.beta) == (1.0, 2.0, 30.0)
        assert cfg.resampling_delay == 2
        assert cfg.resampling == "multinomial"
        assert cfg.prior_map_exponent is True
        assert cfg.transition_density_in_weights is False

    def test_variance_interpretation_takes_sqrt(self):
        cfg = FilterConfig(sigma_p=1e-4, sigma_p_is_variance=True)
        assert cfg.effective_sigma_p == pytest.approx(0.01)

    def test_default_measurement_noise_is_isotropic(self):
        cfg = FilterConfig(sigma_p=2e-3)
        assert np.allclose(cfg.measurement_noise(), 4e-6 * np.eye(3))

    def test_explicit_measurement_noise_wins(self):
        r = np.diag([1e-6, 2e-6, 3e-6])
        cfg = FilterConfig(measurement_noise_cov=r)
        assert np.array_equal(cfg.measurement_noise(), r)

    @pytest.mark.parametrize("kw", [
        dict(n_particles=0),
        dict(memory=0),
        dict(resampling_delay=-1),
        dict(resampling="stratified"),
        dict(sigma_p=0.0),
        dict(sigma_p=-1e-4),
        dict(n_workers=0),
        dict(process_noise=np.eye(3)),
        dict(prior_cov=np.diag([1.0] * 5 + [-1.0])),
        dict(prior_mean=np.zeros(3)),
        dict(measurement_noise_cov=np.diag([1.0, 1.0, -1.0])),
        dict(n_workers=1.5),
        dict(n_particles=True),
        dict(prior_map_exponent="false"),
        dict(sigma_p=np.inf),
        dict(prior_mean=np.array([0.0, np.nan, 0.0, 0.0, 0.0, 0.0])),
        dict(process_noise=np.diag([np.inf] + [1e-5] * 5)),
        dict(prior_cov=np.diag([np.nan] + [0.04] * 5)),
        dict(measurement_noise_cov=np.diag([np.nan, 1.0, 1.0])),
    ])
    def test_validate_rejects(self, kw):
        with pytest.raises(InvalidConfigError):
            FilterConfig(**kw).validate()

    def test_asymmetric_process_noise_rejected(self):
        q = np.eye(6)
        q[0, 1] = 0.5
        with pytest.raises(InvalidConfigError):
            FilterConfig(process_noise=q).validate()

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(InvalidConfigError, match="num_particles"):
            FilterConfig.from_mapping({"num_particles": 100})

    def test_from_mapping_round_trip(self):
        cfg = FilterConfig(n_particles=40, memory=4, sigma_p=5e-4, seed=7,
                           resampling="systematic",
                           sut=SutParams(alpha=0.9, k=2.0, beta=10.0))
        d = cfg.to_dict()
        d.pop("effective_sigma_p")   # derived, not an input key
        cfg2 = FilterConfig.from_mapping(d)
        assert cfg2.to_dict() == cfg.to_dict()
        assert cfg2.n_particles == 40
        assert cfg2.resampling == "systematic"
        assert cfg2.sut.alpha == 0.9

    def test_from_mapping_diag_shorthand(self):
        cfg = FilterConfig.from_mapping({
            "process_noise_diag": [1, 2, 3, 4, 5, 6],
            "prior_cov_diag": [6, 5, 4, 3, 2, 1],
            "measurement_noise_diag": [1e-6, 1e-6, 1e-6],
        })
        assert np.array_equal(np.diag(cfg.process_noise), [1, 2, 3, 4, 5, 6])
        assert np.array_equal(np.diag(cfg.prior_cov), [6, 5, 4, 3, 2, 1])
        assert np.array_equal(cfg.measurement_noise(), 1e-6 * np.eye(3))

    def test_workers_accepted_but_not_echoed(self):
        cfg = FilterConfig.from_mapping({"workers": 4})
        assert cfg.n_workers == 4
        assert "workers" not in cfg.to_dict()
        assert "n_workers" not in cfg.to_dict()

    def test_to_dict_is_json_ready(self):
        import json
        json.dumps(FilterConfig().to_dict())


class TestWindowBookkeeping:
    def test_window_span_values(self):
        assert list(window_span(1, 5)) == [1]
        assert list(window_span(3, 5)) == [1, 2, 3]
        assert list(window_span(7, 5)) == [3, 4, 5, 6, 7]
        assert list(window_span(4, 1)) == [4]

    def test_extraction_exponents_match_span(self):
        exps = extraction_exponents(7, 5)
        assert sorted(exps) == list(window_span(7, 5))
        assert exps == {3: 0, 4: 1, 5: 2, 6: 3, 7: 4}

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
    def test_total_power_per_measurement_is_m(self, m):
        # the weights accumulate min(t - k + 1, m) likelihood factors for
        # measurement k; extraction tops that up so every rated measurement
        # carries exactly m powers
        for t in range(1, 26):
            exps = extraction_exponents(t, m)
            for k in window_span(t, m):
                propagated = min(t - k + 1, m)
                assert propagated + exps[k] == m

    def test_each_measurement_rated_in_expected_step_count(self):
        T, m = 20, 5
        hits = {k: 0 for k in range(1, T + 1)}
        for t in range(1, T + 1):
            for k in window_span(t, m):
                hits[k] += 1
        for k in range(1, T + 1):
            assert hits[k] == min(m, T - k + 1)


class TestRngAndResampling:
    def test_step_rng_deterministic_and_distinct(self):
        a = _rng_for_step(3, 5).standard_normal(8)
        b = _rng_for_step(3, 5).standard_normal(8)
        c = _rng_for_step(3, 6).standard_normal(8)
        d = _rng_for_step(4, 5).standard_normal(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_normalize_matches_softmax(self):
        rng = np.random.default_rng(0)
        lw = rng.normal(size=64) * 30
        w, logw, degenerate = _normalize_log_weights(lw)
        ref = np.exp(lw - lw.max())
        ref /= ref.sum()
        assert not degenerate
        assert np.allclose(w, ref, rtol=1e-12)
        assert w.sum() == pytest.approx(1.0)
        assert np.allclose(np.exp(logw), w, rtol=1e-12)

    def test_normalize_keeps_log_weights_finite_where_positive(self):
        lw = np.array([0.0, -800.0, -1600.0])
        w, logw, _ = _normalize_log_weights(lw)
        # linear weights underflow to zero but log weights stay exact
        assert w[2] == 0.0
        assert np.isfinite(logw[2])
        assert logw[2] == pytest.approx(-1600.0 - logw_norm(lw), abs=1e-9)

    def test_normalize_all_underflow_degenerates_to_uniform(self):
        w, logw, degenerate = _normalize_log_weights(np.full(10, -np.inf))
        assert degenerate
        assert np.allclose(w, 0.1)
        assert np.allclose(logw, -np.log(10))

    def test_normalize_rejects_nan(self):
        with pytest.raises(FloatingPointError):
            _normalize_log_weights(np.array([0.0, np.nan]))

    def test_multinomial_counts_match_weights(self):
        # aggregate even/odd parent draws: even indices carry 1/4 of the
        # mass, odd carry 3/4
        n = 100_000
        w = np.where(np.arange(n) % 2 == 0, 1.0, 3.0)
        w /= w.sum()
        idx = _resample_indices(np.random.default_rng(1), w, "multinomial")
        odd_share = np.mean(idx % 2 == 1)
        # binomial std of the share is ~0.0014; 5 sigma band
        assert abs(odd_share - 0.75) < 0.007

    def test_systematic_counts_within_one_of_expectation(self):
        rng = np.random.default_rng(2)
        w = rng.random(200)
        w /= w.sum()
        n = len(w)
        idx = _resample_indices(np.random.default_rng(3), w, "systematic")
        counts = np.bincount(idx, minlength=n)
        assert np.all(counts >= np.floor(n * w))
        assert np.all(counts <= np.ceil(n * w))

    def test_resampling_preserves_population_size(self):
        w = np.full(32, 1 / 32)
        for scheme in ("multinomial", "systematic"):
            idx = _resample_indices(np.random.default_rng(0), w, scheme)
            assert idx.shape == (32,)
            assert idx.min() >= 0 and idx.max() < 32


def logw_norm(lw):
    top = lw.max()
    return top + np.log(np.exp(lw - top).sum())


class TestInit:
    def test_shapes_and_uniform_weights(self):
        cfg = _small_config(n_particles=64)
        state = init(cfg)
        assert state.means.shape == (64, 6)
        assert state.covs.shape == (64, 6, 6)
        assert np.allclose(state.weights, 1 / 64)
        assert np.array_equal(state.sampled, state.means)
        assert state.t == 0 and state.history == [] and state.last_update is None

    def test_per_particle_covs_start_at_prior(self):
        cfg = _small_config(n_particles=16)
        state = init(cfg)
        for i in range(16):
            assert np.array_equal(state.covs[i], np.asarray(cfg.prior_cov))

    def test_draw_spread_shrinks_with_memory(self):
        # the initial draw uses prior_cov / m so the population density is
        # the prior raised to the m-th power
        p0 = np.diag([0.04] * 3 + [1.0] * 3)
        base = dict(n_particles=200_000, prior_mean=np.zeros(6), prior_cov=p0)
        wide = init(FilterConfig(memory=1, **base))
        tight = init(FilterConfig(memory=9, **base))
        std_w = wide.means.std(axis=0)
        std_t = tight.means.std(axis=0)
        assert np.allclose(std_w, np.sqrt(np.diag(p0)), rtol=0.02)
        assert np.allclose(std_t, np.sqrt(np.diag(p0) / 9), rtol=0.02)

    def test_flat_prior_flag_keeps_full_spread(self):
        p0 = np.diag([0.04] * 3 + [1.0] * 3)
        cfg = FilterConfig(n_particles=200_000, memory=9, prior_mean=np.zeros(6),
                           prior_cov=p0, prior_map_exponent=False)
        state = init(cfg)
        assert np.allclose(state.means.std(axis=0), np.sqrt(np.diag(p0)), rtol=0.02)

    def test_deterministic_per_seed(self):
        a = init(_small_config(seed=5))
        b = init(_small_config(seed=5))
        c = init(_small_config(seed=6))
        assert np.array_equal(a.means, b.means)
        assert not np.array_equal(a.means, c.means)

    def test_invalid_config_raises_at_init(self):
        with pytest.raises(InvalidConfigError):
            init(_small_config(n_particles=0))


class TestStepBookkeeping:
    @pytest.fixture()
    def setup(self, box):
        cfg = _small_config(memory=3)
        model = cfg.model_for(box)
        meas = _measurements(box, cfg.prior_mean, 8, 1e-3, seed=2)
        return cfg, model, meas

    def test_window_tracks_last_m_measurements(self, setup):
        cfg, model, meas = setup
        state = init(cfg)
        for t, y in enumerate(meas, start=1):
            state, diag = step(state, y, model, cfg)
            assert diag["t"] == t
            assert diag["window"] == list(window_span(t, cfg.memory))
            assert len(state.history) == min(t, cfg.memory)
            assert [k for k, _ in state.history] == list(window_span(t, cfg.memory))

    def test_weights_reset_uniform_after_every_step(self, setup):
        cfg, model, meas = setup
        state = init(cfg)
        for y in meas:
            state, _ = step(state, y, model, cfg)
            assert np.allclose(state.weights, 1 / cfg.n_particles)
            assert state.last_update.weights.sum() == pytest.approx(1.0)

    def test_resampling_delayed_then_always_on(self, setup):
        cfg, model, meas = setup
        state = init(cfg)
        flags = []
        for y in meas:
            state, diag = step(state, y, model, cfg)
            flags.append(diag["resampled"])
        assert flags == [False, False] + [True] * (len(meas) - 2)

    def test_input_state_not_mutated(self, setup):
        cfg, model, meas = setup
        state = init(cfg)
        means_before = state.means.copy()
        weights_before = state.weights.copy()
        step(state, meas[0], model, cfg)
        assert np.array_equal(state.means, means_before)
        assert np.array_equal(state.weights, weights_before)
        assert state.t == 0

    def test_snapshot_consistency(self, setup):
        cfg, model, meas = setup
        state = init(cfg)
        state, _ = step(state, meas[0], model, cfg)
        snap = state.last_update
        assert isinstance(snap, StepSnapshot)
        assert snap.t == 1
        assert snap.sampled.shape == (cfg.n_particles, 6)
        assert np.array_equal(state.sampled, snap.sampled)
        assert np.allclose(np.exp(snap.log_weights), snap.weights, rtol=1e-12)

    def test_all_underflow_flags_degenerate_and_resets(self, box):
        class _HopelessModel:
            mesh = box
            sigma_p = 1e-4

            def surface_distances(self, ys, poses):
                return np.full((len(np.atleast_2d(poses)),
                                len(np.atleast_2d(ys))), np.inf)

            def predict_batch(self, y, poses):
                real = MeasurementModel(mesh=box, sigma_p=1e-4)
                return real.predict_batch(y, poses)

        cfg = _small_config(memory=1)
        state = init(cfg)
        state, diag = step(state, np.array([0.0, 0.0, 0.11]), _HopelessModel(), cfg)
        assert diag["degenerate"] is True
        assert np.allclose(state.last_update.weights, 1 / cfg.n_particles)

    def test_transition_density_flag_changes_weights(self, setup):
        cfg, model, meas = setup
        cfg_on = _small_config(memory=3, transition_density_in_weights=True)
        s_off, s_on = init(cfg), init(cfg_on)
        s_off, _ = step(s_off, meas[0], model, cfg)
        s_on, _ = step(s_on, meas[0], model, cfg_on)
        # same draws (same rng stream), different weighting rule
        assert np.array_equal(s_off.last_update.sampled, s_on.last_update.sampled)
        assert not np.allclose(s_off.last_update.weights, s_on.last_update.weights)


class TestUpfReduction:
    def test_memoryless_step_matches_upf_bitwise(self, box):
        cfg = _small_config(n_particles=40, memory=1, resampling_delay=0,
                            transition_density_in_weights=True, seed=11)
        model = cfg.model_for(box)
        meas = _measurements(box, cfg.prior_mean, 10, 1e-3, seed=4)
        sa, sb = init(cfg), init(cfg)
        for y in meas:
            sa, da = step(sa, y, model, cfg)
            sb, db = upf_step(sb, y, model, cfg)
            assert np.array_equal(sa.means, sb.means)
            assert np.array_equal(sa.covs, sb.covs)
            assert np.array_equal(sa.sampled, sb.sampled)
            assert np.array_equal(sa.last_update.weights, sb.last_update.weights)
            assert da == db

    def test_memory_changes_the_recursion(self, box):
        cfg1 = _small_config(n_particles=40, memory=1, seed=11)
        cfg3 = _small_config(n_particles=40, memory=3, seed=11)
        model = cfg1.model_for(box)
        meas = _measurements(box, cfg1.prior_mean, 6, 1e-3, seed=4)
        s1, s3 = init(cfg1), init(cfg3)
        diverged = False
        for y in meas:
            s1, _ = step(s1, y, model, cfg1)
            s3, _ = step(s3, y, model, cfg3)
            if not np.array_equal(s1.last_update.weights, s3.last_update.weights):
                diverged = True
        assert diverged


class TestExtraction:
    def test_requires_a_processed_measurement(self, box):
        cfg = _small_config()
        with pytest.raises(ValueError):
            extract_pose(init(cfg), cfg.model_for(box), cfg)

    def test_majority_cluster_wins(self):
        # two point clusters far apart; flat likelihood and proposal make
        # the extraction weights uniform, so the 90-particle cluster has
        # nine times the mixture density of the 10-particle one
        n = 100
        pose_a = np.array([0.0] * 6)
        pose_b = np.array([50.0, 0, 0, 0, 0, 0])
        sampled = np.tile(pose_a, (n, 1))
        sampled[90:] = pose_b
        snap = StepSnapshot(
            t=1, sampled=sampled,
            cov_vecs=np.tile(np.eye(6), (n, 1, 1)),
            cov_evals=np.ones((n, 6)),
            log_proposal=np.zeros(n),
            weights=np.full(n, 1 / n),
            log_weights=np.full(n, -np.log(n)),
            window=[(1, np.zeros(3))],
        )
        state = FilterState(means=sampled, covs=np.tile(np.eye(6), (n, 1, 1)),
                            weights=np.full(n, 1 / n), sampled=sampled,
                            t=1, history=list(snap.window), last_update=snap)

        class _FlatModel:
            mesh = None
            sigma_p = 1.0

            def surface_distances(self, ys, poses):
                return np.zeros((len(np.atleast_2d(poses)),
                                 len(np.atleast_2d(ys))))

        cfg = FilterConfig(n_particles=n, memory=1, sigma_p=1.0)
        est = extract_pose(state, _FlatModel(), cfg)
        assert np.array_equal(est.pose.to_array(), pose_a)

    def test_mixture_density_matches_direct_evaluation(self):
        # small handcrafted snapshot checked against a direct mixture sum
        rng = np.random.default_rng(7)
        n, t, m = 6, 2, 3
        sampled = rng.normal(size=(n, 6))
        covs = np.empty((n, 6, 6))
        for i in range(n):
            a = rng.normal(size=(6, 6))
            covs[i] = a @ a.T + 0.5 * np.eye(6)
        evals, vecs = np.linalg.eigh(covs)
        log_proposal = rng.normal(size=n)
        lw0 = rng.normal(size=n)
        lw0 -= logw_norm(lw0)
        ys = [(1, np.array([0.3, 0.0, 0.1])), (2, np.array([-0.2, 0.1, 0.0]))]
        snap = StepSnapshot(t=t, sampled=sampled,
                            cov_vecs=vecs, cov_evals=evals,
                            log_proposal=log_proposal,
                            weights=np.exp(lw0), log_weights=lw0,
                            window=ys)
        state = FilterState(means=sampled, covs=covs,
                            weights=np.exp(lw0), sampled=sampled,
                            t=t, history=list(ys), last_update=snap)

        class _RadialModel:
            # distance of the measurement to a sphere of radius 1 around
            # the pose translation: smooth, pose-dependent, mesh-free
            mesh = None
            sigma_p = 0.5

            def surface_distances(self, ys_, poses):
                ys_ = np.atleast_2d(ys_)
                poses = np.atleast_2d(poses)
                gap = np.linalg.norm(ys_[None, :, :] - poses[:, None, :3], axis=2)
                return np.abs(gap - 1.0)

        model = _RadialModel()
        cfg = FilterConfig(n_particles=n, memory=m, sigma_p=0.5)
        est = extract_pose(state, model, cfg)

        # oracle: extraction weights, then the mixture density at each
        # candidate, all in plain loops
        exps = extraction_exponents(t, m)
        lw = lw0.copy()
        for j, (k, y) in enumerate(ys):
            d = model.surface_distances(y[None, :], sampled)[:, 0]
            lw += exps[k] * (-0.5 * (d / model.sigma_p) ** 2)
        lw -= log_proposal
        lw -= logw_norm(lw)
        dens = np.empty(n)
        for j in range(n):
            comps = [lw[i] + gaussian_logpdf(sampled[j], sampled[i], covs[i])
                     for i in range(n)]
            dens[j] = logw_norm(np.asarray(comps))
        best = int(np.argmax(dens))
        assert np.array_equal(est.pose.to_array(), sampled[best])
        assert est.map_score == pytest.approx(dens[best], abs=1e-9)
        assert np.allclose(est.extraction_weights, np.exp(lw), rtol=1e-9)


class TestRun:
    def test_trivial_point_mass_tracks_truth(self, box):
        # one particle pinned at the true pose with zero spread and zero
        # dynamics noise must stay put; index only reflects measurement
        # noise (exactly zero here)
        truth = np.array([0.02, -0.01, 0.03, 0.4, -0.25, 0.6])
        cfg = FilterConfig(n_particles=1, memory=3,
                           process_noise=np.zeros((6, 6)),
                           prior_mean=truth, prior_cov=np.zeros((6, 6)),
                           sigma_p=1e-3, resampling_delay=0)
        model = cfg.model_for(box)
        meas = _measurements(box, truth, 6, 0.0, seed=1)
        estimates, report = run(meas, model, cfg,
                                truth=Pose.from_array(truth))
        assert len(estimates) == 6
        # the pose estimate never leaves the prior point
        assert np.allclose(estimates[-1].pose.canonical().to_array(),
                           Pose.from_array(truth).canonical().to_array(),
                           atol=1e-12)
        assert report.final_index < 1e-8
        assert report.position_error == pytest.approx(0.0, abs=1e-12)
        assert report.success

    def test_report_shape_and_determinism(self, box):
        cfg = _small_config(seed=3)
        model = cfg.model_for(box)
        meas = _measurements(box, cfg.prior_mean, 5, 1e-3, seed=9)
        est_a, rep_a = run(meas, model, cfg)
        est_b, rep_b = run(meas, model, cfg)
        assert len(rep_a.index_trace) == 5
        assert rep_a.final_index == rep_a.index_trace[-1]
        assert rep_a.elapsed > 0
        assert rep_a.seed == 3
        assert np.array_equal(rep_a.index_trace, rep_b.index_trace)
        assert np.array_equal(est_a[-1].pose.to_array(), est_b[-1].pose.to_array())

    def test_parallel_workers_bitwise_identical(self, box):
        cfg_1 = _small_config(n_particles=37, seed=8)
        cfg_4 = _small_config(n_particles=37, seed=8, n_workers=4)
        model = cfg_1.model_for(box)
        meas = _measurements(box, cfg_1.prior_mean, 4, 1e-3, seed=6)
        est_1, rep_1 = run(meas, model, cfg_1)
        est_4, rep_4 = run(meas, model, cfg_4)
        assert np.array_equal(rep_1.index_trace, rep_4.index_trace)
        assert np.array_equal(est_1[-1].pose.to_array(), est_4[-1].pose.to_array())

    def test_rejects_bad_measurement_shapes(self, box):
        cfg = _small_config()
        model = cfg.model_for(box)
        with pytest.raises(ValueError):
            run(np.zeros((0, 3)), model, cfg)
        with pytest.raises(ValueError):
            run(np.zeros((4, 2)), model, cfg)

    def test_rejects_non_finite_measurements(self, box):
        cfg = _small_config()
        meas = np.zeros((3, 3))
        meas[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            run(meas, cfg.model_for(box), cfg)
