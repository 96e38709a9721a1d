"""End-to-end tests of the command line interface."""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

import meshloc.cli as cli
from meshloc import InvalidConfigError, Pose


@pytest.fixture()
def box_obj(tmp_path, box):
    from meshloc import save_obj
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


class TestParsers:
    def test_parse_pose(self):
        p = cli._parse_pose("0.1, -0.2, 0.3, 1, 0, -1")
        assert isinstance(p, Pose)
        assert np.allclose(p.to_array(), [0.1, -0.2, 0.3, 1, 0, -1])

    def test_parse_pose_rejects_wrong_arity(self):
        with pytest.raises(InvalidConfigError):
            cli._parse_pose("1,2,3")

    def test_parse_face_subset(self):
        assert cli._parse_face_subset(None) is None
        assert cli._parse_face_subset("2,3") == (2, 3)
        assert cli._parse_face_subset(" 4 ") == (4,)

    def test_parse_sweep_list(self):
        assert cli._parse_sweep("1,5,10") == [1, 5, 10]

    def test_parse_sweep_range(self):
        assert cli._parse_sweep("1..4") == [1, 2, 3, 4]

    def test_parse_sweep_rejects_garbage(self):
        with pytest.raises(InvalidConfigError):
            cli._parse_sweep("1..")
        with pytest.raises(InvalidConfigError):
            cli._parse_sweep("5..1")


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
        rc = cli.main(["simulate", "--mesh", box_obj, "--count", "0",
                       "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_mesh_exits_2(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--mesh", str(tmp_path / "no.obj"),
                       "--output", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_bad_subset_exits_2(self, tmp_path, box_obj):
        rc = cli.main(["simulate", "--mesh", box_obj, "--face-subset", "0,99",
                       "--output", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("flag, value, field", [
        ("--true-pose", "nan,0,0,0,0,0", "true_pose"),
        ("--noise-sigma", "inf", "noise_sigma"),
    ])
    def test_non_finite_scenario_exits_2(self, tmp_path, box_obj, capsys,
                                         flag, value, field):
        out = tmp_path / "x.csv"
        rc = cli.main(["simulate", "--mesh", box_obj, flag, value,
                       "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")
        assert not out.exists()


class TestLocalize:
    def test_report_schema_and_config_echo(self, tmp_path, box_obj, tiny_config):
        meas = _simulate(tmp_path, box_obj)
        out = str(tmp_path / "report.json")
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config, "--output", out])
        assert rc == 0
        rep = json.loads(Path(out).read_text())
        assert rep["schema"] == "meshloc-report-1"
        assert rep["kind"] == "localize"
        cfg = rep["config"]
        assert cfg["particles"] == 40
        assert cfg["memory"] == 3
        assert cfg["sigma_p"] == 1e-3
        assert cfg["sigma_p_is_variance"] is False
        assert cfg["effective_sigma_p"] == 1e-3
        assert "workers" not in cfg
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

    def test_unknown_config_key_exits_2(self, tmp_path, box_obj):
        meas = _simulate(tmp_path, box_obj)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("particels: 40\n")
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", str(cfg), "--output", str(tmp_path / "r.json")])
        assert rc == 2

    @pytest.mark.parametrize("key, value", [
        ("sigma_p_is_variance", "false"),
        ("prior_map_exponent", 0),
        ("transition_density_in_weights", "yes"),
        ("particles", 40.9),
        ("memory", True),
        ("resampling_delay", 1.5),
        ("seed", 0.5),
        ("workers", 1.5),
        ("sigma_p", float("inf")),
        ("alpha", float("nan")),
        ("beta", float("inf")),
        ("prior_mean", [0.0, float("nan"), 0.0, 0.0, 0.0, 0.0]),
        ("prior_cov_diag", [0.01, float("nan"), 0.01, 0.2, 0.2, 0.2]),
        ("sigma_p", None),
        ("alpha", [1]),
        ("process_noise_diag", {"a": 1}),
        ("prior_mean", [1, 2]),
    ])
    def test_malformed_config_value_exits_2(self, tmp_path, box_obj, tiny_config,
                                            key, value):
        meas = _simulate(tmp_path, box_obj)
        mapping = yaml.safe_load(Path(tiny_config).read_text())
        mapping[key] = value
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(mapping))
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", str(cfg), "--output", str(tmp_path / "r.json")])
        assert rc == 2

    @pytest.mark.parametrize("key, value", [("particles", 0), ("workers", 1.5),
                                            ("prior_mean", [1, 2])])
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
        assert capsys.readouterr().err.startswith(f"error: {key}")

    def test_malformed_yaml_exits_2(self, tmp_path, box_obj, capsys):
        meas = _simulate(tmp_path, box_obj)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("particles: [\n")
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", str(cfg), "--output", str(tmp_path / "r.json")])
        assert rc == 2
        assert "malformed YAML" in capsys.readouterr().err

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
        # LinAlgError subclasses ValueError, which otherwise means bad input.
        meas = _simulate(tmp_path, box_obj)

        def explode(*a, **k):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "run", explode)
        rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                       "--config", tiny_config,
                       "--output", str(tmp_path / "r.json")])
        assert rc == 3
        assert "runtime failure" in capsys.readouterr().err

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

    def test_serial_and_parallel_reports_identical(self, tmp_path, box_obj,
                                                   tiny_config):
        meas = _simulate(tmp_path, box_obj)
        blobs = []
        for name, workers in (("ser.json", "1"), ("par.json", "4")):
            out = str(tmp_path / name)
            rc = cli.main(["localize", "--mesh", box_obj, "--measurements", meas,
                           "--config", tiny_config, "--output", out,
                           "--workers", workers, "--omit-timing"])
            assert rc == 0
            blobs.append(Path(out).read_bytes())
        assert blobs[0] == blobs[1]


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

    def test_zero_trials_exits_2(self, tmp_path, box_obj, tiny_config):
        rc = cli.main(["batch", "--mesh", box_obj, "--config", tiny_config,
                       "--trials", "0", "--output", str(tmp_path / "x.json")])
        assert rc == 2


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
        assert cfg.sigma_p_is_variance is False
        assert np.array_equal(np.diag(cfg.process_noise),
                              [1e-5, 1e-5, 1e-5, 1e-4, 1e-4, 1e-4])
        assert np.diag(cfg.prior_cov)[3] == np.pi ** 2
        assert np.diag(cfg.prior_cov)[4] == (np.pi / 2) ** 2
        assert (cfg.sut.alpha, cfg.sut.k, cfg.sut.beta) == (1.0, 2.0, 30.0)
        assert cfg.resampling_delay == 2

    def test_robot_profile_parses(self, configs_dir):
        cfg = cli._load_config(str(configs_dir / "robot.yaml"), {})
        assert cfg.n_particles == 1200
        assert cfg.sigma_p == 4e-4
        assert np.array_equal(np.diag(cfg.process_noise)[3:], [1e-3] * 3)


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
