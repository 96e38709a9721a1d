"""Mutated input files through the command line, one property per format.

Each property takes a valid OBJ mesh, measurement CSV, YAML profile or
ground-truth JSON, mutates it once and runs ``meshloc localize`` on it in
process.  Whatever the mutation, the run exits 0, 2 or 3 and nothing else
escapes.  An exit 2 names the file, or for a profile the key at fault; a
message that names a line names one of the file.  An exit 0 writes a
report of finite numbers only, which echoes each profile key and the
ground-truth scenario as the file states them: a value the file holds is
run as it is or refused, never cut or coerced.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import save_obj

import meshloc.cli as cli
from meshloc import box_mesh
from meshloc.mupf import _PROFILE_COUNTS, _PROFILE_KEYS

PROFILE = """\
particles: 16
memory: 3
resampling_delay: 2
seed: 0
sigma_p: 1.0e-3
transition_density_in_weights: false
prior_mean: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
prior_cov_diag: [0.01, 0.01, 0.01, 0.2, 0.2, 0.2]
process_noise_diag: [1.0e-5, 1.0e-5, 1.0e-5, 1.0e-4, 1.0e-4, 1.0e-4]
"""

# Where each format goes on the command line, and what separates its fields.
FORMATS = {"obj": ("--mesh", " "), "csv": ("--measurements", ","),
           "yaml": ("--config", ", "), "json": ("--ground-truth", ", ")}
# Profile keys, and the field names that errors give in parentheses.
NAMES = _PROFILE_KEYS | {name for name, _ in _PROFILE_COUNTS.values()}

TOKEN = re.compile(r'[^\s,:\[\]{}"]+')
BAD_TOKENS = ["nan", "inf", "-inf", "true", '""', "1" + "0" * 30, "-7", "0.5", "2.7"]
# One field past the csv module's limit of 131072 characters.
LONG = 131_073


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The valid input files, keyed by format: the 12-face box, four contacts."""
    folder = tmp_path_factory.mktemp("valid")
    save_obj(box_mesh(0.1, 0.3, 0.2), folder / "box.obj")
    (folder / "profile.yaml").write_text(PROFILE)
    assert cli.main(["simulate", "--mesh", str(folder / "box.obj"),
                     "--output", str(folder / "meas.csv"), "--count", "4",
                     "--noise-sigma", "0.0005", "--seed", "1"]) == 0
    names = {"obj": "box.obj", "csv": "meas.csv", "yaml": "profile.yaml",
             "json": "meas.truth.json"}
    return {fmt: (folder / name).read_bytes() for fmt, name in names.items()}


@st.composite
def mutations(draw, text: str, sep: str) -> bytes:
    kind = draw(st.sampled_from(["swap", "drop", "extra", "long", "crlf", "byte"]))
    if kind == "crlf":
        return text.replace("\n", "\r\n").encode()
    if kind == "byte":
        at = draw(st.integers(0, len(text.encode())))
        raw = text.encode()
        return raw[:at] + b"\xff" + raw[at:]
    tokens = list(TOKEN.finditer(text))
    match = tokens[draw(st.integers(0, len(tokens) - 1))]
    lo, hi = match.span()
    if kind == "swap":
        new = draw(st.sampled_from(BAD_TOKENS))
    elif kind == "drop":
        new, hi = "", hi + text[hi:].startswith(",")
    elif kind == "extra":
        new = match.group() + sep + match.group()
    else:
        new = draw(st.sampled_from("1x")) * LONG
    return (text[:lo] + new + text[hi:]).encode()


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or abs(value) < float("inf")


def _same(echo, value) -> bool:
    """Equal, numbers compared as the floats they round to; a bool, a
    string or null equals only itself."""
    if isinstance(value, list):
        return (isinstance(echo, list) and len(echo) == len(value)
                and all(map(_same, echo, value)))
    if isinstance(value, (bool, str, type(None))) or isinstance(echo, bool):
        return type(echo) is type(value) and echo == value
    return isinstance(echo, (int, float)) and float(echo) == float(value)


def _check_echo(fmt, mutated, report):
    if fmt == "yaml":
        for key, value in yaml.safe_load(mutated).items():
            if key.endswith("_diag"):
                assert _same(np.diag(report["config"][key[:-5]]).tolist(), value), key
            else:
                assert _same(report["config"][key], value), key
    elif fmt == "json":
        scenario = json.loads(mutated)["scenario"]
        assert all(_same(report["scenario"][key], scenario[key]) for key in scenario)


def _check(valid, fmt, data):
    mutated = data.draw(mutations(valid[fmt].decode(), FORMATS[fmt][1]))
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, content in valid.items():
            files[name] = Path(tmp) / f"input.{name}"
            files[name].write_bytes(mutated if name == fmt else content)
        out = Path(tmp) / "report.json"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = cli.main(["localize", "--output", str(out),
                           *(arg for name, path in files.items()
                             for arg in (FORMATS[name][0], str(path)))])
        message = stderr.getvalue()
        assert rc in (0, 2, 3), (rc, message)
        if rc == 0:
            report = json.loads(out.read_text(),
                                parse_constant=lambda c: pytest.fail(f"{c} in report"))
            assert _finite(report)
            _check_echo(fmt, mutated, report)
        elif rc == 2:
            path = str(files[fmt])
            named = path in message or fmt == "yaml" and (
                message.startswith("error: unknown config keys: ")
                or any(re.search(rf"\b{n}\b", message) for n in NAMES))
            assert named, message
            where = re.search(rf"{re.escape(path)}:(\d+):", message)
            lines = mutated.count(b"\n") + (not mutated.endswith(b"\n"))
            assert where is None or 1 <= int(where.group(1)) <= lines, message


# Each property runs about 40 four-contact localizations of 16 particles,
# a few seconds in all.
_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


@_SETTINGS
@given(data=st.data())
def test_mutated_obj_exits_0_2_or_3(valid, data):
    _check(valid, "obj", data)


@_SETTINGS
@given(data=st.data())
def test_mutated_measurement_csv_exits_0_2_or_3(valid, data):
    _check(valid, "csv", data)


@_SETTINGS
@given(data=st.data())
def test_mutated_profile_exits_0_2_or_3(valid, data):
    _check(valid, "yaml", data)


@_SETTINGS
@given(data=st.data())
def test_mutated_ground_truth_exits_0_2_or_3(valid, data):
    _check(valid, "json", data)
