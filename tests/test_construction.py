"""Direct construction of the records that hold numbers.

`FilterConfig` and `MeasurementModel` convert each number field when
they are built.  Whatever a caller passes, the record either holds
finite floats of the documented shape or the constructor raises
`InvalidConfigError`, the one error for refused input, naming the field
(the profile key for `FilterConfig`).  `ScenarioSpec` either holds each
field in its JSON type or raises it naming the field.  Some checks below
catch `ValueError`, which `InvalidConfigError` subclasses.
"""

import json
import math
import re
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshloc import (FilterConfig, InvalidConfigError, MeasurementModel, MeshlocError, Pose,
                     ScenarioSpec, box_mesh, run)
from meshloc.errors import is_int

BOX = box_mesh(0.1, 0.3, 0.2)

# FilterConfig field -> the profile key its errors name.
_KEYS = {f.name: f.name for f in fields(FilterConfig)} | {"n_particles": "particles"}
_COUNTS = ("n_particles", "memory", "resampling_delay", "seed")
_FLAGS = ("transition_density_in_weights",)
_ARRAYS = {"process_noise": (6, 6), "prior_mean": (6,), "prior_cov": (6, 6)}

_scalars = st.one_of(
    st.none(), st.booleans(), st.builds(np.bool_, st.booleans()),
    st.integers(-3, 2000), st.just(10 ** 400),
    st.floats(-1e6, 1e6), st.builds(np.float64, st.floats(-1e6, 1e6)),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.sampled_from(["1e-3", "nan", "inf", "abc", "", "true", "systematic"]))
# Settings held in another type than the field's own, which some field
# converts and the others refuse.
_convertible = st.sampled_from([
    "1e-3", 700.0, np.int64(3), np.float32(0.5), [0, 0, 0, 0, 0, 0], tuple("000000"),
    np.zeros((6, 1)), np.eye(6).tolist(), list(np.eye(3)), np.eye(6)[None], "systematic"])
_values = st.one_of(
    _convertible,
    _scalars,
    st.lists(_scalars, max_size=7),
    st.lists(st.lists(_scalars, min_size=1, max_size=7), max_size=7),
    # Vectors and matrices of the right sizes and of others.
    st.builds(lambda k, s: (s * np.eye(k)).tolist(), st.sampled_from([1, 3, 6, 7]),
              st.floats(0, 1)),
    st.builds(lambda k, s: s * np.eye(k), st.sampled_from([3, 6, 7]), st.floats(-1, 1)),
    st.builds(lambda k, s: np.full(k, s), st.sampled_from([0, 5, 6]), st.floats(-1, 1)),
    st.builds(lambda k: np.ones(k, dtype=bool), st.sampled_from([3, 6])),
)


def _check_config(cfg: FilterConfig) -> None:
    for name in _COUNTS:
        assert is_int(getattr(cfg, name))
    for name in _FLAGS:
        assert isinstance(getattr(cfg, name), (bool, np.bool_))
    assert type(cfg.sigma_p) is float and np.isfinite(cfg.sigma_p) and cfg.sigma_p > 0
    for name, shape in _ARRAYS.items():
        value = getattr(cfg, name)
        assert value.dtype == float and value.shape == shape
        assert np.isfinite(value).all() and not value.flags.writeable


@settings(max_examples=300, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(_KEYS)), value=_values)
def test_filter_config_converts_or_names_the_key(name, value):
    try:
        cfg = FilterConfig(**{name: value})
    except InvalidConfigError as exc:
        assert re.search(rf"\b{_KEYS[name]}\b", str(exc)), (name, str(exc))
        return
    _check_config(cfg)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(value=_values)
def test_measurement_model_converts_or_names_sigma_p(value):
    try:
        model = MeasurementModel(BOX, value)
    except ValueError as exc:
        assert str(exc).startswith("sigma_p "), str(exc)
        return
    assert type(model.sigma_p) is float and np.isfinite(model.sigma_p) and model.sigma_p > 0


def _check_scenario(spec: ScenarioSpec) -> None:
    assert spec.mesh_path is None or isinstance(spec.mesh_path, str)
    assert isinstance(spec.true_pose, Pose)
    assert all(type(v) is float and math.isfinite(v) for v in astuple(spec.true_pose))
    assert type(spec.n_measurements) is int and spec.n_measurements >= 1
    assert type(spec.noise_sigma) is float and 0.0 <= spec.noise_sigma < math.inf
    assert type(spec.seed) is int and spec.seed >= 0
    assert spec.face_subset is None or all(type(i) is int for i in spec.face_subset)
    json.dumps(spec.to_dict(), allow_nan=False)


_SCENARIO = dict(mesh_path=None, true_pose=Pose(), n_measurements=3)
# A pose of any value, or a Pose whose one coordinate holds any value.
_poses = st.one_of(_values, st.builds(lambda name, value: Pose(**{name: value}),
                                      st.sampled_from([f.name for f in fields(Pose)]),
                                      _values))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), name=st.sampled_from([f.name for f in fields(ScenarioSpec)]))
def test_scenario_spec_builds_json_fields_or_names_the_field(data, name):
    value = data.draw(_poses if name == "true_pose" else _values)
    try:
        spec = ScenarioSpec(**_SCENARIO | {name: value})
    except InvalidConfigError as exc:
        assert str(exc).startswith(f"{name} "), (name, str(exc))
        return
    _check_scenario(spec)


@pytest.mark.parametrize("kw, message", [
    (dict(sigma_p="x"), "sigma_p must be a number, got 'x'"),
    (dict(sigma_p=True), "sigma_p must be a number, got True"),
    (dict(prior_mean="abc"), "prior_mean must be a list of 6 numbers, got 'abc'"),
    (dict(prior_mean=[True] * 6), "prior_mean must be a list of 6 numbers, got [True, "),
    # No matrix may be unset.
    (dict(process_noise=None), "process_noise must be a 6x6 matrix, got None"),
    (dict(prior_cov=None), "prior_cov must be a 6x6 matrix, got None"),
], ids=["sigma_p-str", "sigma_p-bool", "prior_mean-str", "prior_mean-bools",
        "process_noise-None", "prior_cov-None"])
def test_filter_config_refuses_wrong_type(kw, message):
    with pytest.raises(InvalidConfigError) as info:
        FilterConfig(**kw)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("build, message", [
    # The transform parameters are fixed: a profile that sets one is refused.
    (lambda: FilterConfig.from_mapping({"alpha": True}), "unknown config keys: ['alpha']"),
    (lambda: FilterConfig.from_mapping({"alpha": "x"}), "unknown config keys: ['alpha']"),
    (lambda: MeasurementModel(BOX, True), "sigma_p must be a number, got True"),
    (lambda: MeasurementModel(BOX, "x"), "sigma_p must be a number, got 'x'"),
    (lambda: MeasurementModel(BOX, np.inf), "sigma_p must be positive and finite"),
], ids=["alpha-bool", "alpha-str", "sigma_p-bool", "sigma_p-str", "sigma_p-inf"])
def test_transform_and_model_refuse_wrong_type(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build, name", [
    (lambda: FilterConfig(memory=10 ** 400), "memory"),
    (lambda: FilterConfig(sigma_p=1e300), "sigma_p"),
    (lambda: FilterConfig(sigma_p=1e-300), "sigma_p"),
    (lambda: FilterConfig(sigma_p=5e-324), "sigma_p"),
    (lambda: MeasurementModel(BOX, 1e-300), "sigma_p"),
    (lambda: MeasurementModel(BOX, 1e300), "sigma_p"),
], ids=["memory-huge", "sigma_p-huge", "sigma_p-tiny", "sigma_p-subnormal", "model-tiny",
        "model-huge"])
def test_refuses_what_the_arithmetic_cannot_carry(build, name):
    # Unrefused, each makes the filter raise OverflowError or
    # ZeroDivisionError, or degenerate at every step.
    with pytest.raises(InvalidConfigError, match=f"^{name}"):
        build()


def test_number_fields_are_converted_once():
    cfg = FilterConfig(sigma_p=np.float64(2e-4), prior_mean=[0, 0, 0, 1, 2, 3],
                       n_particles=40.0)
    assert type(cfg.sigma_p) is float and type(cfg.n_particles) is int
    assert cfg.prior_mean.dtype == float and not cfg.prior_mean.flags.writeable
    given_cov = np.eye(6)
    cfg = FilterConfig(prior_cov=given_cov)
    assert given_cov.flags.writeable          # the caller's array is copied, not frozen
    assert cfg.prior_cov is not given_cov


# Extreme but valid settings: zeros, subnormals, +-1e+-300 and huge integers,
# with the edges of what a float square and a float count carry.
_EXTREME = st.sampled_from([
    0, 0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1.5e-154, 1e-10, 1.0, 1e154,
    1.35e154, 1e300, -1e300, 1.7e308, 2, 10 ** 20, 2 ** 53, 2 ** 53 + 1, 10 ** 400])
_MATRICES = ("process_noise", "prior_cov")
# Three contacts on three faces of BOX.
_CONTACTS = np.array([[0.05, 0.0, 0.0], [0.0, 0.15, 0.01], [0.01, 0.02, 0.1]])


# Profiles of up to three extreme settings, a vector or matrix holding its
# value on every entry or on the diagonal, with a small population.
_EXTREME_KEYS = st.dictionaries(
    st.sampled_from(["memory", "resampling_delay", "seed", "sigma_p", "prior_mean",
                     *_MATRICES]),
    _EXTREME, min_size=1, max_size=3)


def _profile(particles, mapping, transition):
    return {key: [value] * 6 if key == "prior_mean"
            else [[value if i == j else 0 for j in range(6)] for i in range(6)]
            if key in _MATRICES else value
            for key, value in mapping.items()} | {
        "particles": particles, "transition_density_in_weights": transition}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(particles=st.integers(1, 8), mapping=_EXTREME_KEYS, transition=st.booleans())
def test_a_config_that_builds_can_run(particles, mapping, transition):
    # Either the config is refused naming a key it was given, or the filter
    # runs to finite estimates and indices, or it fails as a MeshlocError or
    # LinAlgError: no bare OverflowError or ZeroDivisionError from a value it
    # accepted.  numpy's overflow warnings are messages, not outcomes, so
    # they are let pass; where a distance's square overflows, `run` raises.
    try:
        cfg = FilterConfig.from_mapping(_profile(particles, mapping, transition))
    except InvalidConfigError as exc:
        assert any(re.search(rf"\b{key}\b", str(exc)) for key in mapping), str(exc)
        return
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            estimates, report = run(_CONTACTS, cfg.model_for(BOX), cfg)
    except (MeshlocError, np.linalg.LinAlgError):
        return
    assert all(np.isfinite(e.pose.to_array()).all() for e in estimates)
    assert np.isfinite(report.index_trace).all()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(particles=st.integers(1, 10 ** 6), mapping=_EXTREME_KEYS, transition=st.booleans())
def test_to_dict_reads_back_as_the_same_config(particles, mapping, transition):
    # A report's config block is a profile that builds the same config.
    try:
        cfg = FilterConfig.from_mapping(_profile(particles, mapping, transition))
    except InvalidConfigError:
        return
    echo = cfg.to_dict()
    assert FilterConfig.from_mapping(echo).to_dict() == echo
