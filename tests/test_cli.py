"""End-to-end tests of the command line interface."""

import dataclasses
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import save_obj

import meshloc.cli as cli
import meshloc.errors as errors
from meshloc import FilterConfig, InvalidConfigError, Pose, ScenarioSpec, TrialReport
from meshloc.mupf import _PROFILE_KEYS


@pytest.fixture()
def box_obj(tmp_path, box):
    path = tmp_path / "box.obj"
    save_obj(box, path)
    return str(path)


@pytest.fixture()
def tiny_config(tmp_path):
    # small population so CLI tests stay fast
    path = tmp_path / "tiny.yaml"
    path.write_text(
        "particles: 40\n"
        "memory: 3\n"
        "sigma_p: 1.0e-3\n"
        "prior_cov_diag: [0.01, 0.01, 0.01, 0.2, 0.2, 0.2]\n"
        "seed: 0\n"
    )
    return str(path)


@pytest.fixture()
def serial_pool(monkeypatch):
    """Replace the batch process pool by one that maps serially and starts
    no process; the list records each pool's ``max_workers``."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return sizes


def _simulate(tmp_path, box_obj, **over):
    out = str(tmp_path / over.pop("name", "meas.csv"))
    argv = ["simulate", "--mesh", box_obj, "--output", out,
            "--true-pose", over.pop("pose", "0,0,0,0,0,0"),
            "--count", str(over.pop("count", 10)),
            "--noise-sigma", str(over.pop("noise", 0.0005)),
            "--seed", str(over.pop("seed", 1))]
    subset = over.pop("subset", None)
    if subset:
        argv += ["--face-subset", subset]
    assert not over
    assert cli.main(argv) == 0
    return out


# `json.dumps(config.to_dict(), sort_keys=True)`, the config block every
# report embeds, for the library defaults and the shipped profiles.
_CONFIG_ECHOES = {
    "default": (
        '{"memory": 10, "particles": 700, '
        '"prior_cov": [[0.04, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.04, 0.0, 0.0, 0.0, '
        '0.0], [0.0, 0.0, 0.04, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 9.869604401089358, '
        '0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 2.4674011002723395, 0.0], [0.0, 0.0, 0.0, '
        '0.0, 0.0, 9.869604401089358]], "prior_mean": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0], '
        '"process_noise": [[1e-05, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1e-05, 0.0, 0.0, '
        '0.0, 0.0], [0.0, 0.0, 1e-05, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0001, 0.0, '
        '0.0], [0.0, 0.0, 0.0, 0.0, 0.0001, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0001]], '
        '"resampling_delay": 2, "seed": 0, "sigma_p": 0.0001, '
        '"transition_density_in_weights": false}'
    ),
    "robot": (
        '{"memory": 10, "particles": 1200, '
        '"prior_cov": [[0.04, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.04, 0.0, 0.0, 0.0, '
        '0.0], [0.0, 0.0, 0.04, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 9.869604401089358, '
        '0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 2.4674011002723395, 0.0], [0.0, 0.0, 0.0, '
        '0.0, 0.0, 9.869604401089358]], "prior_mean": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0], '
        '"process_noise": [[1e-05, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1e-05, 0.0, 0.0, '
        '0.0, 0.0], [0.0, 0.0, 1e-05, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.001, 0.0, '
        '0.0], [0.0, 0.0, 0.0, 0.0, 0.001, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.001]], '
        '"resampling_delay": 2, "seed": 0, "sigma_p": 0.0004, '
        '"transition_density_in_weights": false}'
    ),
}
# The simulation profile states the library defaults.
_CONFIG_ECHOES["simulation"] = _CONFIG_ECHOES["default"]


class TestParsers:
    def test_parse_pose(self):
        p = cli._parse_pose("0.1, -0.2, 0.3, 1, 0, -1")
        assert isinstance(p, Pose)
        assert np.allclose(p.to_array(), [0.1, -0.2, 0.3, 1, 0, -1])

    def test_parse_pose_rejects_wrong_arity(self):
        with pytest.raises(InvalidConfigError):
            cli._parse_pose("1,2,3")

    @pytest.mark.parametrize("text", ["1,2,3,4,5,x", "", "1,,2,3,4,5"])
    def test_parse_pose_names_flag_and_value(self, text):
        with pytest.raises(InvalidConfigError, match=f"^--true-pose .*got '{text}'$"):
            cli._parse_pose(text)

    @pytest.mark.parametrize("text", ["2,x", "1.5", "2,,3"])
    def test_parse_face_subset_names_flag_and_value(self, text):
        with pytest.raises(InvalidConfigError,
                           match=f"^--face-subset .*got '{re.escape(text)}'$"):
            cli._parse_face_subset(text)

    def test_parse_face_subset(self):
        assert cli._parse_face_subset(None) is None
        assert cli._parse_face_subset("2,3") == (2, 3)
        assert cli._parse_face_subset(" 4 ") == (4,)

    def test_parse_sweep_list(self):
        assert cli._parse_sweep("1,5,10") == [1, 5, 10]

    def test_parse_sweep_range(self):
        assert cli._parse_sweep("1..4") == [1, 2, 3, 4]

    def test_parse_sweep_rejects_garbage(self):
        # Each message names the flag; an empty range has its own.
        for text, message in [
            ("1..", "--sweep-m must be an inclusive range '<lo>..<hi>' or "
                    "comma-separated integers, got '1..'"),
            ("1,x", "--sweep-m must be an inclusive range '<lo>..<hi>' or "
                    "comma-separated integers, got '1,x'"),
            ("5..1", "--sweep-m range '5..1' is empty"),
            ("0,3", "--sweep-m value must be an integer >= 1"),
            ("-1..2", "--sweep-m value must be an integer >= 1"),
            # Refused by its ends, before a list of 10**23 values is built;
            # 2**53 is the most memory accepts.
            ("1..100000000000000000000000",
             "--sweep-m value must be at most 9007199254740992"),
            ("1,9007199254740993", "--sweep-m value must be at most 9007199254740992"),
        ]:
            with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
                cli._parse_sweep(text)


class TestSimulate:
    def test_writes_csv_and_truth_sidecar(self, tmp_path, box_obj):
        out = _simulate(tmp_path, box_obj, count=12)
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "x,y,z"
        assert len(lines) == 13
        truth = json.loads((tmp_path / "meas.truth.json").read_text())
        assert truth["schema"] == "meshloc-ground-truth-1"
        assert truth["scenario"]["n_measurements"] == 12
        assert len(truth["contacts"]) == 12

    def test_rerun_is_byte_identical(self, tmp_path, box_obj):
        a = _simulate(tmp_path, box_obj, name="a.csv", seed=7)
        b = _simulate(tmp_path, box_obj, name="b.csv", seed=7)
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert ((tmp_path / "a.truth.json").read_bytes()
                == (tmp_path / "b.truth.json").read_bytes())

    def test_zero_count_exits_2(self, tmp_path, box_obj, capsys):
        # A count beyond what an (L, 3) float array can address names the
        # field instead of failing inside numpy.
        for count, message in [
                ("0", "n_measurements must be an integer >= 1"),
                ("100000000000000000000000", "n_measurements must be at most ")]:
            rc = cli.main(["simulate", "--mesh", box_obj, "--count", count,
                           "--output", str(tmp_path / "x.csv")])
            assert rc == 2
            assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_missing_mesh_exits_2(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--mesh", str(tmp_path / "no.obj"),
                       "--output", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_bad_subset_exits_2(self, tmp_path, box_obj, capsys):
        # An index beyond int64 is out of range too, not a failure to convert.
        for subset in ["0,99", "100000000000000000000000", "-100000000000000000000000,1"]:
            rc = cli.main(["simulate", "--mesh", box_obj, f"--face-subset={subset}",
                           "--output", str(tmp_path / "x.csv")])
            assert rc == 2
            assert capsys.readouterr().err.startswith(
                "error: face_subset indices must lie in [0, 12), got range ")

    @pytest.mark.parametrize("flag, value, field", [
        ("--true-pose", "nan,0,0,0,0,0", "true_pose"),
        ("--noise-sigma", "inf", "noise_sigma"),
        ("--true-pose", "1,2,3,4,5,x", "--true-pose"),
        ("--face-subset", "2,x", "--face-subset"),
    ])
    def test_non_finite_scenario_exits_2(self, tmp_path, box_obj, capsys,
                                         flag, value, field):
        out = tmp_path / "x.csv"
        rc = cli.main(["simulate", "--mesh", box_obj, flag, value,
                       "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")
        assert not out.exists()

    def test_non_finite_measurements_exit_2_and_write_nothing(self, tmp_path, box_obj,
                                                              capsys):
        # Finite settings whose noise overflows: the file would hold inf,
        # which `localize` refuses.
        out = tmp_path / "m.csv"
        rc = cli.main(["simulate", "--mesh", box_obj, "--output", str(out),
                       "--noise-sigma", "1e308", "--count", "15", "--seed", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: noise_sigma") and "true_pose" in err
        assert list(tmp_path.iterdir()) == [Path(box_obj)]


    def test_creates_output_directories(self, tmp_path, box_obj):
        out = tmp_path / "new" / "c.csv"
        truth = tmp_path / "other" / "t.json"
        rc = cli.main(["simulate", "--mesh", box_obj, "--output", str(out)])
        assert rc == 0
        assert out.is_file() and (tmp_path / "new" / "c.truth.json").is_file()
        rc = cli.main(["simulate", "--mesh", box_obj, "--output", str(out),
                       "--ground-truth", str(truth)])
        assert rc == 0
        assert truth.is_file()
        assert not list(tmp_path.rglob("*.tmp"))


class TestLocalize:
    def test_report_schema_and_config_echo(self, tmp_path, box_obj, tiny_config):
        meas = _simulate(tmp_path, box_obj)
        out = str(tmp_path / "report.json")
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config, "--output", out])
        assert rc == 0
        rep = json.loads(Path(out).read_text())
        assert rep["schema"] == "meshloc-report-3"
        assert rep["kind"] == "localize"
        cfg = rep["config"]
        assert cfg["particles"] == 40
        assert cfg["memory"] == 3
        assert cfg["sigma_p"] == 1e-3
        # Every profile key, matrices in full.
        assert set(cfg) == {key for key in _PROFILE_KEYS if not key.endswith("_diag")}
        body = rep["report"]
        assert len(body["index_trace"]) == 10
        assert body["final_index"] == body["index_trace"][-1]
        assert body["elapsed"] > 0
        assert len(body["estimate"]) == 6

    def test_emit_trace_writes_csv(self, tmp_path, box_obj, tiny_config):
        meas = _simulate(tmp_path, box_obj)
        out = str(tmp_path / "report.json")
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config, "--output", out, "--emit-trace"])
        assert rc == 0
        lines = (tmp_path / "report.trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,index"
        assert len(lines) == 11

    def test_ground_truth_populates_errors(self, tmp_path, box_obj, tiny_config):
        meas = _simulate(tmp_path, box_obj)
        out = str(tmp_path / "report.json")
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config, "--output", out,
                       "--ground-truth", str(tmp_path / "meas.truth.json")])
        assert rc == 0
        rep = json.loads(Path(out).read_text())
        assert rep["report"]["position_error"] is not None
        assert rep["report"]["orientation_error"] is not None
        assert rep["scenario"]["true_pose"] == [0, 0, 0, 0, 0, 0]
        assert set(rep["report"]) == {f.name for f in dataclasses.fields(TrialReport)}
        assert set(rep["scenario"]) == {f.name for f in dataclasses.fields(ScenarioSpec)}

    @pytest.mark.parametrize("field, value", [("seed", 1.7), ("n_measurements", True),
                                              ("face_subset", [2.5, 3]),
                                              ("true_pose", [True, 0, 0, 0, 0, 0]),
                                              ("mesh_path", 5)])
    def test_cut_ground_truth_value_exits_2(self, tmp_path, box_obj, tiny_config,
                                            capsys, field, value):
        meas = _simulate(tmp_path, box_obj)
        truth = tmp_path / "meas.truth.json"
        payload = json.loads(truth.read_text())
        payload["scenario"][field] = value
        truth.write_text(json.dumps(payload))
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config, "--ground-truth", str(truth),
                       "--output", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {truth}: ")

    def test_missing_measurements_exits_2(self, tmp_path, box_obj, tiny_config):
        rc = cli.main(["localize", "--mesh", box_obj,
                       "--measurements", str(tmp_path / "none.csv"),
                       "--config", tiny_config,
                       "--output", str(tmp_path / "r.json")])
        assert rc == 2

    def test_nan_measurements_exit_2(self, tmp_path, box_obj, tiny_config):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,z\n0.1,nan,0.0\n")
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", str(bad),
                       "--config", tiny_config,
                       "--output", str(tmp_path / "r.json")])
        assert rc == 2

    @pytest.mark.parametrize("body, message", [
        ("0.1,0.2,0.3\n0.1,0.2\n", "expected 3 values, got 2"),
        ("0.1,abc,0.3\n", "could not convert string to float: 'abc'"),
    ], ids=["short-row", "non-numeric"])
    def test_bad_measurement_row_names_line(self, tmp_path, box_obj, tiny_config,
                                            capsys, body, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,z\n\n" + body)
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", str(bad),
                       "--config", tiny_config, "--output", str(tmp_path / "r.json")])
        assert rc == 2
        line = 2 + body.count("\n")
        assert capsys.readouterr().err == f"error: {bad}:{line}: {message}\n"

    def test_oversized_measurement_field_names_line(self, tmp_path, box_obj,
                                                    tiny_config, capsys):
        # A field beyond the csv module's field size limit (131072 characters).
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,z\n0.1,0.2,0.3\n" + "1" * 200_000 + ",0,0\n")
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", str(bad),
                       "--config", tiny_config, "--output", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:3: field larger than field limit (131072)\n")

    @pytest.mark.parametrize("record, message", [
        ("v 1 x 0", "could not convert string to float: 'x'"),
        ("f 1 2 0", "face index out of range for 3 vertices read so far"),
        ("v nan 0 1", "non-finite vertex coordinate in 'v nan 0 1'"),
        ("v inf 0 0", "non-finite vertex coordinate in 'v inf 0 0'"),
    ])
    def test_bad_mesh_record_names_line(self, tmp_path, tiny_config, capsys,
                                        record, message):
        mesh = tmp_path / "bad.obj"
        mesh.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{record}\nf 1 2 3\n")
        meas = tmp_path / "meas.csv"
        meas.write_text("x,y,z\n0.1,0.2,0.3\n")
        rc = cli.main(["localize", "--mesh", str(mesh), "--measurements", str(meas),
                       "--config", tiny_config, "--output", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {mesh}:4: {message}\n"

    @pytest.mark.parametrize("flag, content", [
        ("--measurements", b"x,y,z\n0.1,\xff,0.3\n"),
        ("--mesh", b"v 0 0 0\nv 1 0 0\nv 0 1 0\n\xff\nf 1 2 3\n"),
        ("--config", b"particles: 40\nmemory: \xff\n"),
        ("--ground-truth", b"{\"schema\": "),
    ], ids=["csv", "obj", "yaml", "json"])
    def test_unreadable_input_names_file(self, tmp_path, box_obj, tiny_config, capsys,
                                         flag, content):
        # Bytes that are not UTF-8, or a ground truth that is not JSON.
        meas = _simulate(tmp_path, box_obj)
        files = {"--mesh": box_obj, "--measurements": meas, "--config": tiny_config,
                 "--ground-truth": str(tmp_path / "meas.truth.json")}
        files[flag] = str(tmp_path / "bad")
        Path(files[flag]).write_bytes(content)
        rc = cli.main(["localize", "--output", str(tmp_path / "r.json"),
                       *(arg for pair in files.items() for arg in pair)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {files[flag]}: ")

    def test_unknown_config_key_exits_2(self, tmp_path, box_obj):
        meas = _simulate(tmp_path, box_obj)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("particels: 40\n")
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", str(cfg), "--output", str(tmp_path / "r.json")])
        assert rc == 2

    def test_unknown_keys_of_mixed_types_exit_2(self, tmp_path, box_obj, capsys):
        meas = _simulate(tmp_path, box_obj)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("1: 2\nfoo: 3\n")
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", str(cfg), "--output", str(tmp_path / "r.json")])
        assert rc == 2
        assert "unknown config keys: [1, 'foo']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        # Fixed parts of the method, not settings: refused as unknown keys,
        # as are alpha, k and beta below.
        ("sigma_p_is_variance", "false"),
        ("prior_map_exponent", 0),
        ("workers", 1.5),   # the filter is serial
        ("transition_density_in_weights", "yes"),
        ("particles", 40.9),
        ("memory", True),
        ("resampling_delay", 1.5),
        ("seed", 0.5),
        ("sigma_p", float("inf")),
        ("alpha", float("nan")),
        ("beta", float("inf")),
        ("prior_mean", [0.0, float("nan"), 0.0, 0.0, 0.0, 0.0]),
        ("prior_cov_diag", [0.01, float("nan"), 0.01, 0.2, 0.2, 0.2]),
        ("sigma_p", None),
        ("alpha", [1]),
        ("process_noise_diag", {"a": 1}),
        ("prior_mean", [1, 2]),
        ("sigma_p", True),
        ("alpha", True),
        ("prior_mean", [True, 0, 0, 0, 0, 0]),
        ("prior_cov", np.eye(6).tolist()),
    ])
    def test_malformed_config_value_exits_2(self, tmp_path, box_obj, tiny_config,
                                            capsys, key, value):
        meas = _simulate(tmp_path, box_obj)
        mapping = yaml.safe_load(Path(tiny_config).read_text())
        mapping[key] = value
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(mapping))
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", str(cfg), "--output", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        if key in _PROFILE_KEYS:
            # Matrix errors name the key as "<matrix>[_diag]".
            assert key.removesuffix("_diag") in err
        else:
            assert err == f"error: unknown config keys: [{key!r}]\n"

    @pytest.mark.parametrize("key, value", [("particles", 0), ("workers", 1.5),
                                            ("prior_mean", [1, 2]), ("sigma_p", True),
                                            ("prior_cov", np.eye(6).tolist()),
                                            ("beta", float("inf")), ("k", float("nan")),
                                            ("alpha", 0.0), ("alpha", 1e200),
                                            # Values the arithmetic cannot carry.
                                            pytest.param("memory", 10 ** 400, id="memory-huge"),
                                            ("sigma_p", 1e-300),
                                            ("resampling_delay", -1)])
    def test_config_error_names_profile_key(self, tmp_path, box_obj, tiny_config,
                                            capsys, key, value):
        meas = _simulate(tmp_path, box_obj)
        mapping = yaml.safe_load(Path(tiny_config).read_text())
        mapping[key] = value
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(mapping))
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", str(cfg), "--output", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        if key in _PROFILE_KEYS:
            assert err.startswith(f"error: {key}")
        else:
            # A removed setting (the filter is serial, the transform's
            # parameters are fixed): refused as unknown, by name.
            assert err == f"error: unknown config keys: [{key!r}]\n"

    def test_malformed_yaml_exits_2(self, tmp_path, box_obj, capsys):
        meas = _simulate(tmp_path, box_obj)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("particles: [\n")
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", str(cfg), "--output", str(tmp_path / "r.json")])
        assert rc == 2
        assert "malformed YAML" in capsys.readouterr().err

    def test_yaml_list_profile_exits_2_naming_the_file(self, tmp_path, box_obj, capsys):
        # YAML null alone, an empty or comment-only file, means no settings; a
        # false, a zero, an empty list or an empty string is not a profile.
        meas = _simulate(tmp_path, box_obj)
        cfg = tmp_path / "profile.yaml"
        for body in ["- particles: 10\n", "false\n", "0\n", "[]\n", "''\n"]:
            cfg.write_text(body)
            rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                           "--config", str(cfg), "--output", str(tmp_path / "r.json")])
            assert rc == 2, body
            assert capsys.readouterr().err == f"error: {cfg}: config must be a mapping\n"
            assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("body", ["", "# no settings\n"], ids=["empty", "comment-only"])
    def test_empty_profile_reads_as_the_defaults(self, tmp_path, body):
        cfg = tmp_path / "profile.yaml"
        cfg.write_text(body)
        assert cli._load_config(str(cfg), {}).to_dict() == FilterConfig().to_dict()

    @pytest.mark.parametrize("flag, what", [
        ("--measurements", "measurement"), ("--mesh", "mesh"), ("--config", "config"),
        ("--ground-truth", "ground-truth"),
    ], ids=["csv", "obj", "yaml", "json"])
    def test_input_the_os_refuses_exits_2_naming_the_file(self, tmp_path, box_obj,
                                                          tiny_config, monkeypatch, capsys,
                                                          flag, what):
        # Refused by a patched `open`, since chmod 000 denies nothing to root.
        meas = _simulate(tmp_path, box_obj)
        files = {"--mesh": box_obj, "--measurements": meas, "--config": tiny_config,
                 "--ground-truth": str(tmp_path / "meas.truth.json")}

        def refusing_open(file, *args, **kwargs):
            if str(file) == files[flag]:
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(errors, "open", refusing_open, raising=False)
        out = tmp_path / "r.json"
        rc = cli.main(["localize", "--output", str(out),
                       *(arg for pair in files.items() for arg in pair)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {what} file cannot be read: {files[flag]}: Permission denied\n")
        assert not out.exists()

    def test_unwritable_output_exits_2_naming_the_path(self, tmp_path, box_obj, tiny_config,
                                                       monkeypatch, capsys):
        meas = _simulate(tmp_path, box_obj)

        def refusing_write(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "write_text", refusing_write)
        out = tmp_path / "r.json"
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config, "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 13] Permission denied: '{out}.tmp'\n")
        assert not out.exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("payload", [{"schema": "meshloc-ground-truth-1"}, [1, 2]])
    def test_malformed_ground_truth_exits_2(self, tmp_path, box_obj, tiny_config,
                                            capsys, payload):
        meas = _simulate(tmp_path, box_obj)
        truth = tmp_path / "bad.truth.json"
        truth.write_text(json.dumps(payload))
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config, "--ground-truth", str(truth),
                       "--output", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {truth}")

    def test_linalg_failure_exits_3(self, tmp_path, box_obj, tiny_config,
                                    monkeypatch, capsys):
        # LinAlgError subclasses ValueError; only InvalidConfigError means bad input.
        meas = _simulate(tmp_path, box_obj)

        def explode(*a, **k):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "run", explode)
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config,
                       "--output", str(tmp_path / "r.json")])
        assert rc == 3
        assert "runtime failure" in capsys.readouterr().err

    def test_value_error_inside_run_exits_3(self, tmp_path, box_obj, tiny_config,
                                            monkeypatch, capsys):
        # A ValueError from numpy inside the filter is a failure, not refused input.
        meas = _simulate(tmp_path, box_obj)

        def explode(*a, **k):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "run", explode)
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config, "--output", str(tmp_path / "r.json")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("runtime failure: operands")

    def test_runtime_failure_exits_3(self, tmp_path, box_obj, tiny_config,
                                     monkeypatch, capsys):
        meas = _simulate(tmp_path, box_obj)

        def explode(*a, **k):
            raise FloatingPointError("non-finite log-weights in update")

        monkeypatch.setattr(cli, "run", explode)
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config,
                       "--output", str(tmp_path / "r.json")])
        assert rc == 3
        assert "runtime failure" in capsys.readouterr().err

    def test_out_of_memory_exits_3(self, tmp_path, box_obj, tiny_config,
                                   monkeypatch, capsys):
        meas = _simulate(tmp_path, box_obj)

        def explode(*a, **k):
            raise MemoryError

        monkeypatch.setattr(cli, "run", explode)
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config, "--output", str(tmp_path / "r.json")])
        assert rc == 3
        assert capsys.readouterr().err == "runtime failure: out of memory\n"

    def test_non_finite_result_exits_3_naming_the_step(self, tmp_path, box_obj, capsys):
        # Squared distances from a pose near 1e154 overflow, so the index is
        # inf, which no JSON report can hold.
        meas = _simulate(tmp_path, box_obj, count=4)
        profile = tmp_path / "far.yaml"
        profile.write_text("particles: 1\nsigma_p: 1.0e-3\n"
                           "prior_mean: [1.0e154, 1.0e154, 1.0e154, 0, 0, 0]\n")
        out = tmp_path / "r.json"
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", str(profile), "--output", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: step 1: "), err
        assert "not finite" in err
        assert not list(tmp_path.glob("r.json*"))

    def test_json_writer_refuses_non_finite_numbers(self, tmp_path):
        out = tmp_path / "r.json"
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                cli._write_json(out, {"final_index": value}, omit_timing=False)
        assert not list(tmp_path.iterdir())

    def test_workers_flag_exits_2(self, tmp_path, box_obj, tiny_config, capsys):
        # The filter is serial: there is no thread count to set.
        meas = _simulate(tmp_path, box_obj)
        with pytest.raises(SystemExit) as exc:
            cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                      "--config", tiny_config, "--workers", "1",
                      "--output", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_seed_override_changes_result(self, tmp_path, box_obj, tiny_config):
        meas = _simulate(tmp_path, box_obj)
        outs = []
        for seed in (0, 1):
            out = str(tmp_path / f"r{seed}.json")
            cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                      "--config", tiny_config, "--seed", str(seed),
                      "--output", out])
            outs.append(json.loads(Path(out).read_text())["report"]["estimate"])
        assert outs[0] != outs[1]


class TestReproducibleReports:
    def test_omit_timing_reruns_byte_identical(self, tmp_path, box_obj, tiny_config):
        meas = _simulate(tmp_path, box_obj)
        blobs = []
        for name in ("r1.json", "r2.json"):
            out = str(tmp_path / name)
            rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                           "--config", tiny_config, "--output", out,
                           "--omit-timing"])
            assert rc == 0
            blobs.append(Path(out).read_bytes())
        assert blobs[0] == blobs[1]
        assert b"elapsed" not in blobs[0]

    def test_report_config_reruns_the_report(self, tmp_path, box_obj, tiny_config):
        # A report's config block is a profile: cut out and given back as
        # --config (JSON is YAML), it reproduces the report byte for byte.
        meas = _simulate(tmp_path, box_obj)
        argv = ["localize", "--mesh", box_obj, "--measurements", meas, "--omit-timing"]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert cli.main(argv + ["--config", tiny_config, "--output", str(first)]) == 0
        profile = tmp_path / "echo.yaml"
        profile.write_text(json.dumps(json.loads(first.read_text())["config"]))
        assert cli.main(argv + ["--config", str(profile), "--output", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()


class TestBatch:
    def test_batch_aggregates_trials(self, tmp_path, box_obj, tiny_config):
        out = str(tmp_path / "batch.json")
        rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                       "--trials", "2", "--count", "6", "--noise-sigma", "5e-4",
                       "--use-truth", "--output", out])
        assert rc == 0
        rep = json.loads(Path(out).read_text())
        assert rep["kind"] == "batch"
        agg = rep["aggregate"]
        assert agg["trials"] == 2
        assert 0.0 <= agg["reliability"] <= 1.0
        assert agg["median_final_index"] > 0
        assert "mean_position_error" in agg
        assert len(rep["reports"]) == 2
        # trials draw distinct scenarios and filter seeds
        assert rep["reports"][0]["seed"] == 0
        assert rep["reports"][1]["seed"] == 1

    def test_single_trial_matches_aggregate(self, tmp_path, box_obj, tiny_config):
        out = str(tmp_path / "one.json")
        rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                       "--trials", "1", "--count", "6", "--output", out])
        assert rc == 0
        rep = json.loads(Path(out).read_text())
        assert rep["aggregate"]["trials"] == 1
        report = rep["reports"][0]
        assert rep["aggregate"]["mean_final_index"] == report["final_index"]
        assert rep["aggregate"]["median_final_index"] == report["final_index"]

    def test_sweep_writes_per_memory_and_csv(self, tmp_path, box_obj, tiny_config):
        out = str(tmp_path / "sweep.json")
        rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                       "--trials", "1", "--count", "6", "--sweep-m", "1,3",
                       "--output", out])
        assert rc == 0
        rep = json.loads(Path(out).read_text())
        assert rep["kind"] == "sweep"
        assert [e["memory"] for e in rep["per_memory"]] == [1, 3]
        lines = (tmp_path / "sweep.sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "m,mean_final_index,median_final_index,reliability,mean_elapsed"
        assert len(lines) == 3
        assert lines[1].startswith("1,")
        assert lines[2].startswith("3,")

    def test_sweep_omit_timing_csv_reruns_byte_identical(self, tmp_path, box_obj,
                                                         tiny_config):
        blobs = []
        for name in ("a.json", "b.json"):
            rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                           "--trials", "1", "--count", "6", "--sweep-m", "1,2",
                           "--omit-timing", "--output", str(tmp_path / name)])
            assert rc == 0
            blobs.append(Path(tmp_path / name).with_suffix(".sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].splitlines()[0] == b"m,mean_final_index,median_final_index,reliability"

    def test_trial_workers_reports_identical(self, tmp_path, box_obj, tiny_config):
        blobs = []
        for name, tw in (("tw1.json", "1"), ("tw2.json", "2")):
            out = str(tmp_path / name)
            rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                           "--trials", "2", "--count", "6",
                           "--trial-workers", tw, "--omit-timing",
                           "--output", out])
            assert rc == 0
            blobs.append(Path(out).read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("trials, trial_workers, cpus, pool", [
        (2, 100000, 64, [2]), (5, 100000, 3, [3]), (5, 4, 64, [4]),
        (5, 100000, None, []), (5, 100000, 1, []), (1, 8, 64, []), (5, 1, 64, [])])
    def test_trial_workers_capped_by_trials_and_cpus(self, monkeypatch, serial_pool,
                                                     trials, trial_workers, cpus, pool):
        # A process pool starts all its workers at once, so the pool asked
        # for is never larger than the trials or the CPUs; at one, no pool.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(cli, "_batch_trial", lambda trial: 10 * trial)
        assert cli._run_batch(list(range(trials)), trial_workers) == [
            10 * i for i in range(trials)]
        assert serial_pool == pool

    def test_huge_trial_workers_runs_the_batch(self, tmp_path, box_obj, tiny_config,
                                               monkeypatch, serial_pool):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        blobs = []
        for name, tw in (("serial.json", "1"), ("capped.json", "100000")):
            out = tmp_path / name
            assert cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                             "--trials", "2", "--count", "6", "--trial-workers", tw,
                             "--omit-timing", "--output", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert serial_pool == [2]
        assert blobs[0] == blobs[1]

    def test_bad_sweep_is_named_before_the_mesh_is_read(self, tmp_path, tiny_config,
                                                         capsys):
        missing = tmp_path / "nosuch.obj"
        rc = cli.main(["batch", "--mesh", str(missing), "--config", tiny_config,
                       "--sweep-m", "abc", "--output", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --sweep-m must be ")

    def test_sweep_loads_mesh_once(self, tmp_path, box_obj, tiny_config, monkeypatch):
        calls = []
        real = cli.load_obj

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(cli, "load_obj", counting)
        rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                       "--trials", "3", "--count", "6", "--sweep-m", "1,2",
                       "--output", str(tmp_path / "sweep.json")])
        assert rc == 0
        assert calls == [box_obj]

    def test_sweep_reads_measurements_once(self, tmp_path, box_obj, tiny_config,
                                           monkeypatch):
        meas = _simulate(tmp_path, box_obj, count=6)
        calls = []
        real = cli.read_measurements_csv

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(cli, "read_measurements_csv", counting)
        rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                       "--trials", "3", "--measurements", meas, "--sweep-m", "1,2",
                       "--output", str(tmp_path / "sweep.json")])
        assert rc == 0
        assert calls == [meas]

    def test_batch_on_measurement_file(self, tmp_path, box_obj, tiny_config):
        meas = _simulate(tmp_path, box_obj)
        out = str(tmp_path / "fixed.json")
        rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                       "--trials", "2", "--measurements", meas,
                       "--ground-truth", str(tmp_path / "meas.truth.json"),
                       "--output", out])
        assert rc == 0
        rep = json.loads(Path(out).read_text())
        # same data, different filter seeds
        assert rep["reports"][0]["estimate"] != rep["reports"][1]["estimate"]
        assert rep["reports"][0]["position_error"] is not None

    def test_zero_trials_exits_2(self, tmp_path, box_obj, tiny_config, capsys):
        # So does a count beyond what a list can hold, named by flag.
        for trials, message in [("0", "--trials must be an integer >= 1\n"),
                                (str(10 ** 20), f"--trials must be at most {sys.maxsize}\n")]:
            rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                           "--trials", trials, "--output", str(tmp_path / "x.json")])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {message}"

    def test_negative_trial_workers_exits_2(self, tmp_path, box_obj, tiny_config,
                                            capsys):
        rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                       "--trials", "2", "--trial-workers", "-3",
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --trial-workers")

    def test_ground_truth_without_measurements_exits_2(self, tmp_path, box_obj,
                                                       tiny_config, capsys):
        _simulate(tmp_path, box_obj)
        rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                       "--trials", "1", "--ground-truth", str(tmp_path / "meas.truth.json"),
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --ground-truth")

    @pytest.mark.parametrize("flag, value", [("--true-pose", "nan,0,0,0,0,0"),
                                             ("--count", "99"), ("--noise-sigma", "-1"),
                                             ("--face-subset", "2,x"),
                                             ("--scenario-seed", "5")])
    def test_scenario_flag_with_measurements_exits_2(self, tmp_path, box_obj,
                                                     tiny_config, capsys, flag, value):
        meas = _simulate(tmp_path, box_obj)
        rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                       "--trials", "1", "--measurements", meas, flag, value,
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    def test_use_truth_on_measurements_needs_ground_truth(self, tmp_path, box_obj,
                                                          tiny_config, capsys):
        meas = _simulate(tmp_path, box_obj)
        rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                       "--trials", "1", "--measurements", meas, "--use-truth",
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --use-truth")


class TestDirectoryPaths:
    """A directory where a file is expected exits 2 naming it, before any write."""

    @pytest.fixture()
    def inputs(self, tmp_path, box_obj, tiny_config):
        meas = _simulate(tmp_path, box_obj)
        return ["--mesh", box_obj, "--config", tiny_config, "--measurements", meas]

    @pytest.mark.parametrize("command", ["localize", "batch"])
    def test_ground_truth_directory_exits_2(self, tmp_path, inputs, capsys, command):
        folder = tmp_path / "truth"
        folder.mkdir()
        trials = ["--trials", "1"] if command == "batch" else []
        rc = cli.main([command, *inputs, *trials, "--ground-truth", str(folder),
                       "--output", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: ground-truth file is a directory: {folder}\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["localize", "batch"])
    def test_output_directory_exits_2_and_writes_nothing(self, tmp_path, inputs,
                                                         capsys, command):
        folder = tmp_path / "out"
        folder.mkdir()
        trials = ["--trials", "1"] if command == "batch" else []
        rc = cli.main([command, *inputs, *trials, "--output", str(folder)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --output: {folder} is a directory\n"
        assert not list(tmp_path.rglob("*.tmp"))
        assert not any(folder.iterdir())

    @pytest.mark.parametrize("flag", ["--output", "--ground-truth"])
    def test_simulate_output_directory_exits_2(self, tmp_path, box_obj, capsys, flag):
        folder = tmp_path / "out"
        folder.mkdir()
        paths = {"--output": str(tmp_path / "m.csv"),
                 "--ground-truth": str(tmp_path / "t.json")}
        paths[flag] = str(folder)
        rc = cli.main(["simulate", "--mesh", box_obj,
                       *(arg for pair in paths.items() for arg in pair)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag}: {folder} is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["box.obj", "out"]

    @pytest.mark.parametrize("command, extra, derived, flag", [
        ("simulate", [], "r.truth.json", "--ground-truth"),
        ("localize", ["--emit-trace"], "r.trace.csv", "--emit-trace"),
        ("batch", ["--trials", "1", "--sweep-m", "1,2"], "r.sweep.csv", "--sweep-m"),
    ])
    def test_derived_output_directory_exits_2(self, tmp_path, inputs, capsys,
                                              command, extra, derived, flag):
        # A path the command derives from --output, taken by a directory.
        folder = tmp_path / derived
        folder.mkdir()
        argv = inputs[:2] if command == "simulate" else inputs   # simulate: --mesh only
        rc = cli.main([command, *argv, *extra, "--output", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag}: {folder} is a directory\n"
        assert not (tmp_path / "r.json").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command", ["simulate", "localize", "batch"])
    def test_output_below_a_file_exits_2_before_any_work(self, tmp_path, inputs, capsys,
                                                         monkeypatch, command):
        afile = tmp_path / "afile"
        afile.write_text("")

        def no_work(*a, **k):
            raise AssertionError("the mesh was read")

        monkeypatch.setattr(cli, "load_obj", no_work)
        argv = inputs[:2] if command == "simulate" else inputs   # simulate: --mesh only
        trials = ["--trials", "2"] if command == "batch" else []
        rc = cli.main([command, *argv, *trials, "--output", str(afile / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --output: {afile} is not a directory\n"
        assert afile.read_text() == ""

    def test_replace_failure_leaves_no_tmp(self, tmp_path):
        folder = tmp_path / "out"
        folder.mkdir()
        (folder / "x").write_text("")   # a non-empty directory cannot be replaced
        with pytest.raises(OSError):
            errors.write_text(folder, "text")
        assert not list(tmp_path.rglob("*.tmp"))


class TestOutputNamingAnotherFile:
    """An output path that names an input or another output of the same
    command exits 2 naming both flags, before any work, and leaves every
    file as it was."""

    @staticmethod
    def _refused(capsys, folder, argv, message):
        before = {p.name: p.read_bytes() for p in folder.iterdir()}
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert {p.name: p.read_bytes() for p in folder.iterdir()} == before

    def test_simulate_output_and_ground_truth_one_file(self, tmp_path, box_obj, capsys):
        target = tmp_path / "c.csv"
        target.write_text("kept\n")
        self._refused(capsys, tmp_path, ["simulate", "--mesh", box_obj, "--output", str(target),
                                         "--ground-truth", str(target)],
                      f"--ground-truth: {target} is the same file as --output")

    def test_simulate_output_over_the_mesh(self, tmp_path, box_obj, capsys):
        self._refused(capsys, tmp_path, ["simulate", "--mesh", box_obj, "--output", box_obj],
                      f"--output: {box_obj} is the same file as --mesh")

    def test_localize_output_over_the_measurements(self, tmp_path, box_obj, tiny_config,
                                                   capsys, monkeypatch):
        meas = _simulate(tmp_path, box_obj)
        monkeypatch.chdir(tmp_path)     # a relative spelling of the same file
        self._refused(capsys, tmp_path, ["localize", "--mesh", box_obj, "--config", tiny_config,
                                         "--measurements", meas, "--output", "meas.csv"],
                      "--output: meas.csv is the same file as --measurements")

    @pytest.mark.parametrize("meas, argv, message", [
        ("m.csv", ["localize", "--output", "box.obj"],
         "--output: box.obj is the same file as --mesh"),
        ("m.csv", ["localize", "--output", "tiny.yaml"],
         "--output: tiny.yaml is the same file as --config"),
        ("m.csv", ["localize", "--ground-truth", "m.truth.json", "--output", "m.truth.json"],
         "--output: m.truth.json is the same file as --ground-truth"),
        ("r.trace.csv", ["localize", "--emit-trace", "--output", "r.json"],
         "--emit-trace: r.trace.csv is the same file as --measurements"),
        ("m.csv", ["batch", "--output", "m.csv"],
         "--output: m.csv is the same file as --measurements"),
        ("m.csv", ["batch", "--ground-truth", "m.truth.json", "--output", "m.truth.json"],
         "--output: m.truth.json is the same file as --ground-truth"),
        ("r.sweep.csv", ["batch", "--sweep-m", "1,2", "--output", "r.json"],
         "--sweep-m: r.sweep.csv is the same file as --measurements"),
    ], ids=["mesh", "config", "ground-truth", "trace", "batch-measurements",
            "batch-ground-truth", "sweep"])
    def test_output_over_another_input(self, tmp_path, box_obj, tiny_config, capsys,
                                       monkeypatch, meas, argv, message):
        _simulate(tmp_path, box_obj, name=meas)
        monkeypatch.chdir(tmp_path)
        command, *rest = argv
        trials = ["--trials", "1"] if command == "batch" else []
        self._refused(capsys, tmp_path, [command, "--mesh", "box.obj", "--config", "tiny.yaml",
                                         "--measurements", meas, *trials, *rest], message)


class TestShippedProfiles:
    # guards the checked-in YAML profiles against key drift
    @pytest.fixture()
    def configs_dir(self):
        return Path(__file__).resolve().parents[1] / "configs"

    def test_simulation_profile_parses(self, configs_dir):
        cfg = cli._load_config(str(configs_dir / "simulation.yaml"), {})
        assert cfg.n_particles == 700
        assert cfg.memory == 10
        assert cfg.sigma_p == 1e-4
        assert np.array_equal(np.diag(cfg.process_noise),
                              [1e-5, 1e-5, 1e-5, 1e-4, 1e-4, 1e-4])
        assert np.diag(cfg.prior_cov)[3] == np.pi ** 2
        assert np.diag(cfg.prior_cov)[4] == (np.pi / 2) ** 2
        assert cfg.resampling_delay == 2

    def test_robot_profile_parses(self, configs_dir):
        cfg = cli._load_config(str(configs_dir / "robot.yaml"), {})
        assert cfg.n_particles == 1200
        assert cfg.sigma_p == 4e-4
        assert np.array_equal(np.diag(cfg.process_noise)[3:], [1e-3] * 3)

    @pytest.mark.parametrize("name", ["simulation", "robot"])
    def test_profile_sets_every_key(self, configs_dir, name):
        # Each key from_mapping reads, a matrix in its full or _diag form.
        keys = set(yaml.safe_load((configs_dir / f"{name}.yaml").read_text()))
        assert keys <= _PROFILE_KEYS
        assert ({key.removesuffix("_diag") for key in keys}
                == {key.removesuffix("_diag") for key in _PROFILE_KEYS})

    @pytest.mark.parametrize("name", ["default", "simulation", "robot"])
    def test_config_echo_is_pinned(self, configs_dir, name):
        cfg = (FilterConfig() if name == "default"
               else cli._load_config(str(configs_dir / f"{name}.yaml"), {}))
        assert json.dumps(cfg.to_dict(), sort_keys=True) == _CONFIG_ECHOES[name]


class TestReadme:
    # guards the documented commands against flag drift
    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = []
        for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
            for line in block.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["meshloc"]:
                    commands.append(argv[1:])
        assert [argv[0] for argv in commands] == ["simulate", "localize", "batch"]
        for argv in commands:
            cli.build_parser().parse_args(argv)


class TestProcess:
    # the command line as a shell meets it: a fresh interpreter whose exit
    # status is the process's
    ROOT = Path(__file__).resolve().parents[1]

    def _meshloc(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "meshloc.cli", *argv], cwd=self.ROOT,
            env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
            text=True, timeout=120)

    def test_exit_codes_of_the_process(self, tmp_path):
        contacts = tmp_path / "contacts.csv"
        done = self._meshloc("simulate", "--mesh", "assets/box_0.1x0.3x0.2.obj",
                             "--count", "4", "--seed", "1", "--output", str(contacts))
        assert done.returncode == 0, done.stderr
        assert len(contacts.read_text().splitlines()) == 5   # header and 4 rows
        missing = tmp_path / "missing.obj"
        done = self._meshloc("localize", "--mesh", str(missing), "--measurements",
                             str(contacts), "--output", str(tmp_path / "report.json"))
        assert done.returncode == 2
        assert str(missing) in done.stderr

    def test_installed_script_is_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        with open(self.ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["meshloc"]
        assert target == "meshloc.cli:main"
        module, name = target.split(":")
        assert getattr(importlib.import_module(module), name) is cli.main


class TestManifest:
    def test_manifest_rejects_missing_measurement_file(self, tmp_path, box_obj):
        args = cli.build_parser().parse_args(
            ["batch", "--mesh", box_obj, "--trials", "1",
             "--measurements", str(tmp_path / "nope.csv"),
             "--output", str(tmp_path / "r.json")])
        with pytest.raises(InvalidConfigError):
            cli.cmd_batch(args)

    def test_strip_timing_recurses(self):
        obj = {"elapsed": 1.0, "a": [{"mean_elapsed": 2.0, "keep": 3}],
               "max_elapsed": 4.0, "b": {"elapsed": 5.0}}
        assert cli._strip_timing(obj) == {"a": [{"keep": 3}], "b": {}}
