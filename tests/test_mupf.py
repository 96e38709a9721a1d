"""Tests for the memory particle filter: config, bookkeeping, reductions."""

import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from oracles import gaussian_logpdf, map_readout, upf_step

from meshloc import (
    FilterConfig,
    InvalidConfigError,
    MeasurementModel,
    Pose,
    ScenarioSpec,
    box_mesh,
    extract_pose,
    init,
    run,
    sample_contacts,
    step,
)
from meshloc import mupf
from meshloc.mupf import (
    _LN_2PI,
    _UNDERFLOW_MARGIN,
    FilterState,
    _normalize_log_weights,
    _resample_indices,
    _rng_for_step,
)
from meshloc.ukf import log_likelihood_batch, ukf_step_batch

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


# One refused value per profile key, with the exact message it raises.
_REFUSALS = [
    ("particles", 0, "particles (n_particles) must be an integer >= 1"),
    ("memory", 2.5, "memory must be an integer >= 1"),
    ("resampling_delay", -1, "resampling_delay must be an integer >= 0"),
    ("seed", True, "seed must be an integer >= 0"),
    # The filter has no thread setting: the key is refused as unknown.
    ("workers", 1, "unknown config keys: ['workers']"),
    ("transition_density_in_weights", None,
     "transition_density_in_weights must be true or false"),
    ("process_noise", (np.eye(6) + np.eye(6, k=1)).tolist(),
     "process_noise[_diag] must be symmetric"),
    ("process_noise_diag", [1e-5] * 5 + [np.inf],
     "process_noise[_diag] must be a finite 6x6 matrix"),
    ("prior_cov", (-np.eye(6)).tolist(), "prior_cov[_diag] must be positive semidefinite"),
    ("prior_cov_diag", [0.04] * 3,
     "prior_cov_diag must be a list of 6 numbers, got [0.04, 0.04, 0.04]"),
    # Not profile keys: measurement noise is sigma_p^2 I, reported by to_dict.
    ("measurement_noise", np.eye(3).tolist(), "unknown config keys: ['measurement_noise']"),
    ("measurement_noise_diag", [1e-6] * 3, "unknown config keys: ['measurement_noise_diag']"),
    # Nor are the fixed parts of the method, at any value, even one an
    # older report echoed.
    ("sigma_p_is_variance", False, "unknown config keys: ['sigma_p_is_variance']"),
    ("prior_map_exponent", True, "unknown config keys: ['prior_map_exponent']"),
    ("resampling", "multinomial", "unknown config keys: ['resampling']"),
    ("alpha", 0, "unknown config keys: ['alpha']"),
    ("k", -1, "unknown config keys: ['k']"),
    ("beta", np.inf, "unknown config keys: ['beta']"),
    ("sigma_p", 0, "sigma_p must be positive and finite"),
    ("prior_mean", [0.0, np.nan, 0.0, 0.0, 0.0, 0.0], "prior_mean must be a finite 6-vector"),
]


def _wrong_value(key, value, what):
    return key, value, f"{key} must be {what}, got {value!r}"


# Further refusals of the keys above, each under its own test id.
_MORE_REFUSALS = {
    "process_noise_diag-bool": _wrong_value("process_noise_diag", [True] + [1e-5] * 5,
                                            "a list of 6 numbers"),
    # A value of the right size but another shape is refused, not reshaped.
    "process_noise-2x18": _wrong_value("process_noise", np.ones((2, 18)).tolist(),
                                       "a 6x6 matrix"),
    "process_noise-flat": _wrong_value("process_noise", [1e-5] * 36, "a 6x6 matrix"),
    "prior_mean-2x3": _wrong_value("prior_mean", [[0, 0, 0], [0, 0, 0]],
                                   "a list of 6 numbers"),
    # More particles than numpy can address: named here, not inside numpy.
    "particles-huge": ("particles", 10 ** 30,
                       f"particles (n_particles) must be at most {2 ** 63 // 288}"),
    # Values whose arithmetic a float cannot carry.
    "memory-huge": ("memory", 2 ** 53 + 1, "memory must be at most 2**53 (9007199254740992)"),
    **{f"{key}-{value!r}": (key, value, f"{key} must lie between 1.492e-154 and "
                            f"1.341e+154, where its square is a normal float, got {value!r}")
       for key, value in [("sigma_p", 1e-300), ("sigma_p", 5e-324), ("sigma_p", 1e300)]},
    # The transform parameters are fixed, so a value their arithmetic
    # could not carry is refused as an unknown key too.
    **{f"alpha-{value!r}": ("alpha", value, "unknown config keys: ['alpha']")
       for value in (1e-300, 1e200)},
    "alpha-no-spread": ("alpha", 1e-10, "unknown config keys: ['alpha']"),
}


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
        assert cfg.resampling_delay == 2
        assert cfg.transition_density_in_weights is False

    def test_default_measurement_noise_is_isotropic(self, box):
        # The UKF's contact noise is sigma_p^2 I, with no setting of its own.
        cfg = _small_config(n_particles=8, sigma_p=2e-3)
        model, y = cfg.model_for(box), np.array([0.05, 0.01, 0.02])
        state = init(cfg)
        new, _ = step(state, y, model, cfg)
        _, covs = ukf_step_batch(state.sampled, state.covs, y, model, cfg.process_noise,
                                 R=4e-6 * np.eye(3))
        assert np.array_equal(new.covs, covs)

    @pytest.mark.parametrize("kw", [
        dict(n_particles=0),
        dict(memory=0),
        dict(resampling_delay=-1),
        dict(seed=-1),
        dict(sigma_p=0.0),
        dict(sigma_p=-1e-4),
        dict(n_workers=0),
        dict(process_noise=np.eye(3)),
        dict(prior_cov=np.diag([1.0] * 5 + [-1.0])),
        dict(prior_mean=np.zeros(3)),
        dict(process_noise=np.full(36, 1e-5)),     # the right size, not the shape
        dict(n_workers=1.5),
        dict(n_particles=True),
        dict(transition_density_in_weights="false"),
        dict(sigma_p=np.inf),
        dict(prior_mean=np.array([0.0, np.nan, 0.0, 0.0, 0.0, 0.0])),
        dict(process_noise=np.diag([np.inf] + [1e-5] * 5)),
        dict(prior_cov=np.diag([np.nan] + [0.04] * 5)),
        dict(prior_mean=np.zeros((6, 1))),
    ])
    def test_validate_rejects(self, kw):
        with pytest.raises(InvalidConfigError):
            FilterConfig(**kw)

    def test_asymmetric_process_noise_rejected(self):
        q = np.eye(6)
        q[0, 1] = 0.5
        with pytest.raises(InvalidConfigError):
            FilterConfig(process_noise=q)

    def test_symmetry_check_does_not_overflow(self):
        # Finite entries near the float limit differ by more than it.
        q = np.eye(6)
        q[0, 1], q[1, 0] = 1e308, -1e308
        with pytest.raises(InvalidConfigError,
                           match=r"^process_noise\[_diag\] must be symmetric$"):
            FilterConfig(process_noise=q)

    def test_refused_when_built(self):
        # A config that exists is one the filter accepts: the check runs
        # in the constructor, so replace() cannot skip it either.
        with pytest.raises(InvalidConfigError, match=r"^particles \(n_particles\) "):
            FilterConfig(n_particles=0)
        with pytest.raises(InvalidConfigError, match="^memory "):
            replace(FilterConfig(), memory=0)

    @pytest.mark.parametrize("key, value, message", [*_REFUSALS, *_MORE_REFUSALS.values()],
                             ids=[*(case[0] for case in _REFUSALS), *_MORE_REFUSALS])
    def test_from_mapping_refuses_each_key(self, key, value, message):
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
            FilterConfig.from_mapping({key: value})

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(InvalidConfigError, match="num_particles"):
            FilterConfig.from_mapping({"num_particles": 100})

    def test_from_mapping_round_trip(self):
        cfg = FilterConfig(n_particles=40, memory=4, sigma_p=5e-4, seed=7,
                           transition_density_in_weights=True)
        d = cfg.to_dict()
        # No derived value or fixed part of the method is echoed.
        assert not {"measurement_noise", "effective_sigma_p", "sigma_p_is_variance",
                    "resampling", "prior_map_exponent", "alpha", "k", "beta"} & set(d)
        cfg2 = FilterConfig.from_mapping(d)
        assert cfg2.to_dict() == cfg.to_dict()
        assert cfg2.n_particles == 40
        assert cfg2.transition_density_in_weights is True

    def test_from_mapping_diag_shorthand(self):
        cfg = FilterConfig.from_mapping({
            "process_noise_diag": [1, 2, 3, 4, 5, 6],
            "prior_cov_diag": [6, 5, 4, 3, 2, 1],
        })
        assert np.array_equal(np.diag(cfg.process_noise), [1, 2, 3, 4, 5, 6])
        assert np.array_equal(np.diag(cfg.prior_cov), [6, 5, 4, 3, 2, 1])

    @pytest.mark.parametrize("full, diag, dim", [
        ("process_noise", "process_noise_diag", 6),
        ("prior_cov", "prior_cov_diag", 6),
    ])
    def test_from_mapping_rejects_full_and_diag_together(self, full, diag, dim):
        with pytest.raises(InvalidConfigError, match=f"^{full} and {diag} "):
            FilterConfig.from_mapping({full: np.eye(dim).tolist(), diag: [1.0] * dim})

    def test_from_mapping_reads_numeric_strings(self):
        # PyYAML reads 1e-3, which has no dot, as the string '1e-3'.
        cfg = FilterConfig.from_mapping({"sigma_p": "1e-3", "prior_cov_diag": ["1e-2"] * 6})
        assert (cfg.sigma_p, cfg.prior_cov[0, 0]) == (1e-3, 1e-2)

    def test_empty_profile_is_library_default(self):
        # from_mapping holds no defaults of its own, so none can drift.
        cfg = FilterConfig.from_mapping({})
        assert cfg.to_dict() == FilterConfig().to_dict()

    @pytest.mark.parametrize("value", [0, 2, True, 1.5, 1.0, "1"])
    def test_n_workers_accepts_only_one(self, value):
        with pytest.raises(InvalidConfigError, match="^n_workers must be 1 "):
            FilterConfig(n_workers=value)

    def test_workers_accepted_but_not_echoed(self):
        # n_workers=1 is accepted for callers that still pass it, and is no
        # field. Arrays make `==` ambiguous; the echo holds every field.
        cfg = _small_config()
        assert not {"workers", "n_workers"} & set(FilterConfig(n_workers=1).to_dict())
        assert replace(cfg, n_workers=1).to_dict() == cfg.to_dict()
        five = replace(cfg, memory=5)
        assert replace(cfg, memory=5, n_workers=1).to_dict() == five.to_dict()
        assert "n_workers" not in {f.name for f in fields(FilterConfig)}
        assert "n_workers" not in repr(cfg)

    def test_to_dict_is_json_ready(self):
        import json
        json.dumps(FilterConfig().to_dict())


def _span(t, m):
    """Measurement indices rated at step t: max(t-m+1, 1) .. t."""
    return range(max(t - m + 1, 1), t + 1)


def _exponents(t, m):
    """Extraction's likelihood exponent on each rated measurement k."""
    return {k: m - t + k - 1 for k in _span(t, m)}


class TestWindowBookkeeping:
    def test_window_span_values(self):
        assert list(_span(1, 5)) == [1]
        assert list(_span(3, 5)) == [1, 2, 3]
        assert list(_span(7, 5)) == [3, 4, 5, 6, 7]
        assert list(_span(4, 1)) == [4]

    def test_extraction_exponents_match_span(self):
        exps = _exponents(7, 5)
        assert sorted(exps) == list(_span(7, 5))
        assert exps == {3: 0, 4: 1, 5: 2, 6: 3, 7: 4}

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
    def test_total_power_per_measurement_is_m(self, m):
        # the weights accumulate min(t - k + 1, m) likelihood factors for
        # measurement k; extraction tops that up so every rated measurement
        # carries exactly m powers
        for t in range(1, 26):
            exps = _exponents(t, m)
            for k in _span(t, m):
                propagated = min(t - k + 1, m)
                assert propagated + exps[k] == m

    def test_each_measurement_rated_in_expected_step_count(self):
        T, m = 20, 5
        hits = {k: 0 for k in range(1, T + 1)}
        for t in range(1, T + 1):
            for k in _span(t, m):
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
        idx = _resample_indices(np.random.default_rng(1), w)
        odd_share = np.mean(idx % 2 == 1)
        # binomial std of the share is ~0.0014; 5 sigma band
        assert abs(odd_share - 0.75) < 0.007

    def test_resampling_preserves_population_size(self):
        w = np.full(32, 1 / 32)
        idx = _resample_indices(np.random.default_rng(0), w)
        assert idx.shape == (32,)
        assert idx.min() >= 0 and idx.max() < 32


def logw_norm(lw):
    top = lw.max()
    return top + np.log(np.exp(lw - top).sum())


class TestInit:
    def test_shapes_and_uniform_weights(self):
        cfg = _small_config(n_particles=64)
        state = init(cfg)
        assert state.sampled.shape == (64, 6)
        assert state.covs.shape == (64, 6, 6)
        assert np.array_equal(state.parents, np.arange(64))
        assert state.n_particles == 64
        assert state.t == 0 and state.window.shape == (0, 3)
        assert state.cov_vecs is None and state.log_weights is None

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
        std_w = wide.sampled.std(axis=0)
        std_t = tight.sampled.std(axis=0)
        assert np.allclose(std_w, np.sqrt(np.diag(p0)), rtol=0.02)
        assert np.allclose(std_t, np.sqrt(np.diag(p0) / 9), rtol=0.02)

    def test_deterministic_per_seed(self):
        a = init(_small_config(seed=5))
        b = init(_small_config(seed=5))
        c = init(_small_config(seed=6))
        assert np.array_equal(a.sampled, b.sampled)
        assert not np.array_equal(a.sampled, c.sampled)


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
            assert diag["window"] == _span(t, cfg.memory)
            assert np.array_equal(state.window, meas[max(t - cfg.memory, 0):t])

    def test_weights_reset_uniform_after_every_step(self, setup):
        # The next step's prior weight is 1/N whatever this step's weights
        # were: with the same population and draws, a state that carries
        # other step-t weights takes the identical next step.
        cfg, model, meas = setup
        state = init(cfg)
        for y in meas[:-1]:
            state, _ = step(state, y, model, cfg)
            assert np.exp(state.log_weights).sum() == pytest.approx(1.0)
        skewed = replace(state, log_weights=np.zeros(cfg.n_particles))
        a, _ = step(state, meas[-1], model, cfg)
        b, _ = step(skewed, meas[-1], model, cfg)
        assert np.array_equal(a.log_weights, b.log_weights)
        assert np.array_equal(a.sampled, b.sampled)
        assert np.array_equal(a.parents, b.parents)

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
        sampled_before = state.sampled.copy()
        covs_before = state.covs.copy()
        parents_before = state.parents.copy()
        step(state, meas[0], model, cfg)
        assert np.array_equal(state.sampled, sampled_before)
        assert np.array_equal(state.covs, covs_before)
        assert np.array_equal(state.parents, parents_before)
        assert state.t == 0 and state.window.shape == (0, 3) and state.cov_vecs is None

    def test_snapshot_consistency(self, setup):
        cfg, model, meas = setup
        state = init(cfg)
        state, _ = step(state, meas[0], model, cfg)
        n = cfg.n_particles
        assert state.t == 1
        assert state.sampled.shape == (n, 6)
        assert state.cov_vecs.shape == (n, 6, 6)
        assert state.cov_evals.shape == (n, 6) and (state.cov_evals > 0).all()
        assert state.log_proposal.shape == (n,)
        # No resampling at step 1: each candidate is its own parent.
        assert np.array_equal(state.parents, np.arange(n))
        assert np.exp(state.log_weights).sum() == pytest.approx(1.0)

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
        assert np.allclose(np.exp(state.log_weights), 1 / cfg.n_particles)

    def test_contact_noise_is_the_models(self, setup):
        # The UKF's contact noise and the likelihood read one sigma_p, the
        # model's, even when the config holds another.
        _, box_model, meas = setup
        cfg = _small_config(memory=3, sigma_p=1e-4)
        model = MeasurementModel(mesh=box_model.mesh, sigma_p=1e-2)
        state = init(cfg)
        new, diag = step(state, meas[0], model, cfg)
        assert not diag["resampled"]
        _, covs = ukf_step_batch(state.sampled, state.covs, meas[0], model, cfg.process_noise,
                                 R=model.sigma_p ** 2 * np.eye(3))
        assert np.array_equal(new.covs, covs)
        _, config_covs = ukf_step_batch(state.sampled, state.covs, meas[0], model,
                                        cfg.process_noise, R=cfg.sigma_p ** 2 * np.eye(3))
        assert not np.allclose(new.covs, config_covs)

    def test_transition_density_flag_changes_weights(self, setup):
        cfg, model, meas = setup
        cfg_on = _small_config(memory=3, transition_density_in_weights=True)
        s_off, s_on = init(cfg), init(cfg_on)
        s_off, _ = step(s_off, meas[0], model, cfg)
        s_on, _ = step(s_on, meas[0], model, cfg_on)
        # same draws (same rng stream), different weighting rule
        assert np.array_equal(s_off.sampled, s_on.sampled)
        assert not np.allclose(np.exp(s_off.log_weights), np.exp(s_on.log_weights))


class TestDistinctParents:
    """The UKF runs once per distinct resampling parent; the step is
    bitwise the step that corrects every particle."""

    @pytest.fixture()
    def setup(self, box):
        cfg = _small_config(n_particles=37, memory=3, resampling_delay=0, seed=9)
        model = cfg.model_for(box)
        return cfg, model, _measurements(box, cfg.prior_mean, 4, 1e-3, seed=3)

    def test_step_equals_the_step_over_every_particle(self, setup):
        cfg, model, meas = setup
        state = init(cfg)
        for y in meas:
            a, diag_a = step(state, y, model, cfg)
            # The reference lays the particles out as copies, each its own parent.
            copies = replace(state, sampled=state.sampled[state.parents],
                             covs=state.covs[state.parents],
                             parents=np.arange(cfg.n_particles))
            b, diag_b = step(copies, y, model, cfg)
            assert diag_a == diag_b
            for f in fields(FilterState):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
            state = a
            assert len(np.unique(state.parents)) < cfg.n_particles

    def test_ukf_rows_are_the_distinct_parents(self, setup, monkeypatch):
        cfg, model, meas = setup
        cfg = replace(cfg, resampling_delay=1)
        rows = []
        batch = mupf.ukf_step_batch

        def counted(means, *args, **kwargs):
            rows.append(len(means))
            return batch(means, *args, **kwargs)
        monkeypatch.setattr(mupf, "ukf_step_batch", counted)
        state, expected = init(cfg), cfg.n_particles
        for y in meas:
            rows.clear()
            state, diag = step(state, y, model, cfg)
            assert sum(rows) == expected
            expected = diag["unique_parents"]
            unmoved = np.array_equal(state.parents, np.arange(cfg.n_particles))
            assert unmoved == (not diag["resampled"])
        assert expected < cfg.n_particles


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
            for f in fields(FilterState):
                assert np.array_equal(getattr(sa, f.name), getattr(sb, f.name)), f.name
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
            if not np.array_equal(s1.log_weights, s3.log_weights):
                diverged = True
        assert diverged


class _FlatModel:
    """Every pose at distance 0 from every contact: a flat likelihood."""

    mesh = None
    sigma_p = 1.0

    def surface_distances(self, ys, poses):
        return np.zeros((len(np.atleast_2d(poses)), len(np.atleast_2d(ys))))


def _mixture_state(sampled, log_weights, covs):
    """A one-contact state whose extraction weights are ``log_weights``,
    normalized: under `_FlatModel` with memory 1 the window adds nothing."""
    evals, vecs = np.linalg.eigh(covs)
    return FilterState(sampled=sampled, covs=covs, parents=np.arange(len(sampled)), t=1,
                       window=np.zeros((1, 3)), cov_vecs=vecs, cov_evals=evals,
                       log_proposal=np.zeros(len(sampled)), log_weights=log_weights)


def _random_covs(n, scale, seed=0):
    a = np.random.default_rng(seed).normal(size=(n, 6, 6))
    return scale * (a @ np.swapaxes(a, 1, 2) / 6.0 + 0.1 * np.eye(6))


def _spread_weights(rng, n, spread=2000.0):
    """Log weights over ``spread`` nats: about 745/spread of them non-zero."""
    return _normalize_log_weights(-spread * rng.random(n))[1]


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
        state = FilterState(
            sampled=sampled, covs=np.tile(np.eye(6), (n, 1, 1)), parents=np.arange(n),
            t=1, window=np.zeros((1, 3)),
            cov_vecs=np.tile(np.eye(6), (n, 1, 1)),
            cov_evals=np.ones((n, 6)),
            log_proposal=np.zeros(n),
            log_weights=np.full(n, -np.log(n)),
        )

        cfg = FilterConfig(n_particles=n, memory=1, sigma_p=1.0)
        est = extract_pose(state, _FlatModel(), cfg)
        assert np.array_equal(est.pose.to_array(), pose_a)

    def test_mixture_density_matches_direct_evaluation(self):
        # small handcrafted state checked against a direct mixture sum
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
        ys = np.array([[0.3, 0.0, 0.1], [-0.2, 0.1, 0.0]])   # k = 1, 2
        state = FilterState(sampled=sampled, covs=covs, parents=np.arange(n), t=t,
                            window=ys, cov_vecs=vecs, cov_evals=evals,
                            log_proposal=log_proposal, log_weights=lw0)

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
        # measurement k carries exponent m - t + k - 1
        lw = lw0.copy()
        for k, y in zip(_span(t, m), ys):
            d = model.surface_distances(y[None, :], sampled)[:, 0]
            lw += (m - t + k - 1) * (-0.5 * (d / model.sigma_p) ** 2)
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

    @pytest.mark.slow
    @pytest.mark.parametrize("profile", ["simulation.yaml", "robot.yaml"])
    def test_readout_equals_dense_reference_bitwise(self, box, profile):
        # The pinned box scenario at N=700 and N=1200, every step.
        cfg = FilterConfig.from_mapping(yaml.safe_load((CONFIGS / profile).read_text()))
        model = cfg.model_for(box)
        meas = _measurements(box, [0.02, -0.01, 0.03, 0.4, -0.25, 0.6], 15, 5e-4,
                             seed=100, subset=(2, 3))
        state = init(cfg)
        for y in meas:
            state, _ = step(state, y, model, cfg)
            est = extract_pose(state, model, cfg)
            best, score = map_readout(state, model, cfg)
            assert np.array_equal(est.pose.to_array(), state.sampled[best])
            assert est.map_score == score

    # Supports the pinned scenario never produces.  Each state is held
    # bitwise to the dense reference, which evaluates every component.
    @staticmethod
    def _assert_dense(state):
        cfg = FilterConfig(n_particles=len(state.sampled), memory=1)
        est = extract_pose(state, _FlatModel(), cfg)
        best, score = map_readout(state, _FlatModel(), cfg)
        assert np.array_equal(est.pose.to_array(), state.sampled[best])
        assert est.map_score == score
        return best

    def test_flat_weights_keep_every_component(self):
        # Equal weights and equal covariances: every bound is the same, and
        # no column maximum exceeds it, so every row is kept.
        n = 300
        sampled = 0.1 * np.random.default_rng(1).normal(size=(n, 6))
        covs = np.tile(1e-2 * np.eye(6), (n, 1, 1))
        self._assert_dense(_mixture_state(sampled, np.full(n, -np.log(n)), covs))

    def test_two_distant_clusters(self):
        # Support in both clusters, 5 m apart at 1 mm spread: across the
        # gap every term underflows.
        rng = np.random.default_rng(2)
        n = 300
        sampled = 1e-3 * rng.normal(size=(n, 6))
        sampled[n // 2:, 0] += 5.0
        state = _mixture_state(sampled, _spread_weights(rng, n), _random_covs(n, 1e-6))
        assert (state.log_weights[: n // 2] > -745).any()
        assert (state.log_weights[n // 2:] > -745).any()
        self._assert_dense(state)

    def test_candidate_far_from_all_support(self):
        # One zero-weight candidate 1 km from the rest: at it every term is
        # near -1e12, so its chunk's lower bound keeps every row.
        rng = np.random.default_rng(3)
        n = 200
        sampled = 1e-3 * rng.normal(size=(n, 6))
        sampled[17, :3] = 1e3
        log_weights = _spread_weights(rng, n)
        log_weights[17] = -1e4
        self._assert_dense(_mixture_state(sampled, log_weights, _random_covs(n, 1e-6)))

    def test_zero_weight_component_holds_the_maximum(self):
        # Component 0's weight underflows to 0, but it sits at the eigenvalue
        # floor while the others are 1e150 wide, so its density wins: a
        # readout over the non-zero weights alone would miss it.
        rng = np.random.default_rng(5)
        n = 50
        sampled = 1e-2 * rng.normal(size=(n, 6))
        covs = np.tile(1e150 * np.eye(6), (n, 1, 1))
        covs[0] = 1e-12 * np.eye(6)
        log_weights = np.full(n, -np.log(n - 1))
        log_weights[0] = -760.0
        assert self._assert_dense(_mixture_state(sampled, log_weights, covs)) == 0

    @pytest.mark.parametrize("n", [1, 256, 257])
    def test_chunk_edges(self, n):
        rng = np.random.default_rng(n)
        sampled = 1e-2 * rng.normal(size=(n, 6))
        covs = _random_covs(n, 1e-4, seed=n)
        self._assert_dense(_mixture_state(sampled, _spread_weights(rng, n), covs))

    def test_component_bound_premise(self, box):
        # The readout leaves out a component whose term is at most
        # exp(-margin) of the column maximum: that must be exactly 0.0, and
        # bound_i must hold for every term, here at every step of the pinned
        # box scenario at N=700.
        assert np.exp(-_UNDERFLOW_MARGIN) == 0.0
        cfg = FilterConfig.from_mapping(
            yaml.safe_load((CONFIGS / "simulation.yaml").read_text()))
        model = cfg.model_for(box)
        meas = _measurements(box, [0.02, -0.01, 0.03, 0.4, -0.25, 0.6], 15, 5e-4,
                             seed=100, subset=(2, 3))
        m = cfg.memory
        state = init(cfg)
        for y in meas:
            state, _ = step(state, y, model, cfg)
            ll = log_likelihood_batch(model, state.window, state.sampled)
            exps = np.arange(m - len(state.window), m, dtype=float)
            _, log_wbar, _ = _normalize_log_weights(
                state.log_weights + ll @ exps - state.log_proposal)
            logdet = np.log(state.cov_evals).sum(axis=1)
            bound = log_wbar + -0.5 * (6.0 * _LN_2PI + logdet)
            diff = state.sampled[None, :, :] - state.sampled[:, None, :]
            u = np.einsum("iab,ija->ijb", state.cov_vecs, diff)
            maha = np.einsum("ijb,ib->ij", u * u, 1.0 / state.cov_evals)
            mix = log_wbar[:, None] + -0.5 * (6.0 * _LN_2PI + logdet[:, None] + maha)
            assert (bound[:, None] >= mix).all()


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

    def test_rejects_bad_measurement_shapes(self, box):
        cfg = _small_config()
        model = cfg.model_for(box)
        with pytest.raises(InvalidConfigError):
            run(np.zeros((0, 3)), model, cfg)
        with pytest.raises(InvalidConfigError):
            run(np.zeros((4, 2)), model, cfg)

    def test_rejects_non_finite_measurements(self, box):
        cfg = _small_config()
        meas = np.zeros((3, 3))
        meas[1, 2] = np.nan
        with pytest.raises(InvalidConfigError, match="finite"):
            run(meas, cfg.model_for(box), cfg)
