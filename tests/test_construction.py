"""Direct construction of the records that hold numbers.

`FilterConfig`, `SutParams` and `MeasurementModel` convert each number
field when they are built.  Whatever a caller passes, the record either
holds finite floats of the documented shape or the constructor raises
`InvalidConfigError`, the one error for refused input, naming the field
(the profile key for `FilterConfig`).  `ScenarioSpec` either holds each
field in its JSON type or raises it naming the field.  Some checks below
catch `ValueError`, which `InvalidConfigError` subclasses.
"""

import json
import math
import re
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshloc import (FilterConfig, InvalidConfigError, MeasurementModel, Pose, ScenarioSpec,
                     SutParams, box_mesh)
from meshloc.errors import is_int

BOX = box_mesh(0.1, 0.3, 0.2)

# FilterConfig field -> the profile key its errors name.
_KEYS = {f.name: f.name for f in fields(FilterConfig)} | {
    "n_particles": "particles", "n_workers": "workers"}
_COUNTS = ("n_particles", "memory", "resampling_delay", "seed", "n_workers")
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
    st.just(SutParams()),
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
    assert isinstance(cfg.sut, SutParams)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(_KEYS)), value=_values)
def test_filter_config_converts_or_names_the_key(name, value):
    try:
        cfg = FilterConfig(**{name: value})
    except InvalidConfigError as exc:
        assert re.search(rf"\b{_KEYS[name]}\b", str(exc)), (name, str(exc))
        return
    _check_config(cfg)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(name=st.sampled_from(["alpha", "k", "beta"]), value=_values)
def test_sut_params_converts_or_names_the_field(name, value):
    try:
        sut = SutParams(**{name: value})
    except ValueError as exc:
        assert str(exc).startswith(name), str(exc)
        return
    for f in fields(sut):
        assert type(getattr(sut, f.name)) is float and np.isfinite(getattr(sut, f.name))


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
    (dict(sut="x"), "sut must be a SutParams, got 'x'"),
    # No matrix may be unset.
    (dict(process_noise=None), "process_noise must be a 6x6 matrix, got None"),
    (dict(prior_cov=None), "prior_cov must be a 6x6 matrix, got None"),
], ids=["sigma_p-str", "sigma_p-bool", "prior_mean-str", "prior_mean-bools", "sut-str",
        "process_noise-None", "prior_cov-None"])
def test_filter_config_refuses_wrong_type(kw, message):
    with pytest.raises(InvalidConfigError) as info:
        FilterConfig(**kw)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("build, message", [
    (lambda: SutParams(alpha=True), "alpha must be a number, got True"),
    (lambda: SutParams(alpha="x"), "alpha must be a number, got 'x'"),
    (lambda: MeasurementModel(BOX, True), "sigma_p must be a number, got True"),
    (lambda: MeasurementModel(BOX, "x"), "sigma_p must be a number, got 'x'"),
    (lambda: MeasurementModel(BOX, np.inf), "sigma_p must be positive and finite"),
], ids=["alpha-bool", "alpha-str", "sigma_p-bool", "sigma_p-str", "sigma_p-inf"])
def test_transform_and_model_refuse_wrong_type(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
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
