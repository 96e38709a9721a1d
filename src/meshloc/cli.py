"""Command-line front end: simulate scenarios, run the filter, batch trials.

Exit codes: 0 success, 2 validation problem (bad flags, bad config, missing
files), 3 runtime or numerical failure.  Every report embeds the fully
resolved configuration, so a report plus the mesh is enough to rerun the
exact experiment.  Timing fields are wall-clock and therefore not a
function of the seed; ``--omit-timing`` strips them so reports from
repeated runs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from .errors import (
    EmptyMeshError,
    InvalidConfigError,
    InvalidFaceSubsetError,
    MeshlocError,
)
from .geometry import Pose, load_obj
from .metrics import TrialReport, aggregate_reports
from .mupf import FilterConfig, run
from .simulate import (
    ScenarioSpec,
    read_ground_truth_json,
    read_measurements_csv,
    sample_contacts,
    write_ground_truth_json,
    write_measurements_csv,
)

__all__ = ["main"]

logger = logging.getLogger(__name__)

REPORT_SCHEMA = "meshloc-report-1"
_TIMING_KEYS = ("elapsed", "mean_elapsed", "max_elapsed")


def _parse_pose(text: str) -> Pose:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 6:
        raise InvalidConfigError(
            "pose must be x,y,z,phi,theta,psi (6 comma-separated numbers)")
    return Pose.from_array(np.asarray(parts))


def _parse_face_subset(text: str | None) -> tuple[int, ...] | None:
    if text is None or text.strip() == "":
        return None
    return tuple(int(v) for v in text.split(","))


def _parse_sweep(text: str) -> list[int]:
    """Accept '1..15' (inclusive range) or a comma list like '1,5,10'."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError:
        raise InvalidConfigError(f"cannot parse sweep {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise InvalidConfigError("sweep values must be positive integers")
    return values


def _require_file(path: str, what: str) -> str:
    if not Path(path).is_file():
        raise InvalidConfigError(f"{what} file not found: {path}")
    return path


def _load_config(path: str | None, overrides: dict) -> FilterConfig:
    mapping = {}
    if path is not None:
        with open(_require_file(path, "config")) as fh:
            try:
                loaded = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise InvalidConfigError(f"{path}: malformed YAML: {exc}") from None
        if not isinstance(loaded, dict):
            raise InvalidConfigError(f"{path}: config must be a mapping")
        mapping.update(loaded)
    mapping.update({k: v for k, v in overrides.items() if v is not None})
    return FilterConfig.from_mapping(mapping)


def _load_mesh(path: str):
    return load_obj(_require_file(path, "mesh"))


def _report_to_dict(report) -> dict:
    return {
        "estimate": report.estimate.to_array().tolist(),
        "final_index": float(report.final_index),
        "index_trace": [float(v) for v in report.index_trace],
        "position_error": (None if report.position_error is None
                           else float(report.position_error)),
        "orientation_error": (None if report.orientation_error is None
                              else float(report.orientation_error)),
        "elapsed": float(report.elapsed),
        "success": bool(report.success),
        "seed": int(report.seed),
        "degenerate_steps": [int(k) for k in report.degenerate_steps],
    }


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in _TIMING_KEYS}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _write_json(path: str, payload: dict, omit_timing: bool) -> None:
    if omit_timing:
        payload = _strip_timing(payload)
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    tmp.replace(out)


def _write_trace_csv(path: str, index_trace) -> None:
    with open(path, "w") as fh:
        fh.write("t,index\n")
        for t, v in enumerate(index_trace, start=1):
            fh.write(f"{t},{v:.9g}\n")


def cmd_simulate(args) -> int:
    mesh = _load_mesh(args.mesh)
    spec = ScenarioSpec(
        mesh_path=args.mesh,
        true_pose=_parse_pose(args.true_pose),
        n_measurements=args.count,
        noise_sigma=args.noise_sigma,
        face_subset=_parse_face_subset(args.face_subset),
        seed=args.seed,
    )
    spec.resolved_subset(mesh)
    measurements, contacts = sample_contacts(spec, mesh)
    write_measurements_csv(args.output, measurements)
    truth_path = args.ground_truth or str(Path(args.output).with_suffix(".truth.json"))
    write_ground_truth_json(truth_path, spec, contacts)
    logger.info("wrote %d measurements to %s (ground truth: %s)",
                len(measurements), args.output, truth_path)
    return 0


def cmd_localize(args) -> int:
    config = _load_config(args.config, {"seed": args.seed, "workers": args.workers})
    mesh = _load_mesh(args.mesh)
    measurements = read_measurements_csv(_require_file(args.measurements, "measurement"))

    truth = None
    truth_scenario = None
    if args.ground_truth:
        spec, _ = read_ground_truth_json(args.ground_truth)
        truth = spec.true_pose
        truth_scenario = spec.to_dict()

    _, report = run(measurements, config.model_for(mesh), config, truth=truth)
    payload = {
        "schema": REPORT_SCHEMA,
        "kind": "localize",
        "mesh": args.mesh,
        "measurements": args.measurements,
        "config": config.to_dict(),
        "scenario": truth_scenario,
        "report": _report_to_dict(report),
    }
    _write_json(args.output, payload, args.omit_timing)
    if args.emit_trace:
        trace_path = str(Path(args.output).with_suffix(".trace.csv"))
        _write_trace_csv(trace_path, report.index_trace)
        logger.info("wrote index trace to %s", trace_path)
    logger.info("final index %.6g m, success=%s", report.final_index, report.success)
    return 0


def _batch_trial(trial: tuple) -> TrialReport:
    """One batch trial; module-level so process pools can pickle it.

    ``trial`` is ``(mesh, config, source, truth)``, where ``source`` is
    either a measurement array or a `ScenarioSpec` to sample contacts from.
    """
    mesh, config, source, truth = trial
    if isinstance(source, ScenarioSpec):
        measurements, _ = sample_contacts(source, mesh)
    else:
        measurements = source
    _, report = run(measurements, config.model_for(mesh), config, truth=truth)
    return report


def _run_batch(trials: list[tuple], trial_workers: int) -> list[TrialReport]:
    if trial_workers <= 1 or len(trials) <= 1:
        return [_batch_trial(t) for t in trials]
    with ProcessPoolExecutor(max_workers=trial_workers) as pool:
        return list(pool.map(_batch_trial, trials))


def cmd_batch(args) -> int:
    config = _load_config(args.config, {"seed": args.seed, "workers": args.workers})
    scenario = None
    if args.measurements is None:
        if args.mesh is None:
            raise InvalidConfigError("batch needs --mesh")
        scenario = ScenarioSpec(
            mesh_path=args.mesh,
            true_pose=_parse_pose(args.true_pose),
            n_measurements=args.count,
            noise_sigma=args.noise_sigma,
            face_subset=_parse_face_subset(args.face_subset),
            seed=args.scenario_seed,
        )
    if args.trials < 1:
        raise InvalidConfigError("trials must be at least 1")
    measurements = None
    if args.measurements is not None:
        measurements = read_measurements_csv(
            _require_file(args.measurements, "measurement"))
    mesh = _load_mesh(args.mesh)
    if scenario is not None:
        scenario.resolved_subset(mesh)

    truth = None
    if scenario is None and args.ground_truth:
        truth = read_ground_truth_json(args.ground_truth)[0].true_pose
    elif scenario is not None and args.use_truth:
        truth = scenario.true_pose

    sweep = _parse_sweep(args.sweep_m) if args.sweep_m else None
    memories = sweep if sweep is not None else [config.memory]

    per_m = []
    for memory in memories:
        trials = [(mesh,
                   dataclasses.replace(config, memory=memory, seed=config.seed + i),
                   measurements if scenario is None
                   else dataclasses.replace(scenario, seed=scenario.seed + i),
                   truth)
                  for i in range(args.trials)]
        reports = _run_batch(trials, args.trial_workers)
        per_m.append({
            "memory": memory,
            "aggregate": aggregate_reports(reports),
            "trials": [_report_to_dict(r) for r in reports],
        })

    payload = {
        "schema": REPORT_SCHEMA,
        "kind": "sweep" if sweep is not None else "batch",
        "mesh": args.mesh,
        "config": config.to_dict(),
        "scenario": scenario.to_dict() if scenario is not None else None,
        "measurements": args.measurements,
        "trials": args.trials,
    }
    if sweep is not None:
        payload["per_memory"] = per_m
        sweep_csv = str(Path(args.output).with_suffix(".sweep.csv"))
        with open(sweep_csv, "w") as fh:
            fh.write("m,mean_final_index,median_final_index,reliability,mean_elapsed\n")
            for entry in per_m:
                a = entry["aggregate"]
                fh.write(f"{entry['memory']},{a['mean_final_index']:.9g},"
                         f"{a['median_final_index']:.9g},{a['reliability']:.9g},"
                         f"{a['mean_elapsed']:.9g}\n")
        logger.info("wrote sweep table to %s", sweep_csv)
    else:
        payload["aggregate"] = per_m[0]["aggregate"]
        payload["reports"] = per_m[0]["trials"]
    _write_json(args.output, payload, args.omit_timing)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshloc",
        description="Contact-based 6-DOF object localization on triangle meshes.")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate noisy contact measurements")
    sim.add_argument("--mesh", required=True, help="OBJ mesh file")
    sim.add_argument("--true-pose", default="0,0,0,0,0,0",
                     help="x,y,z,phi,theta,psi of the object")
    sim.add_argument("--count", type=int, default=15,
                     help="number of measurements")
    sim.add_argument("--noise-sigma", type=float, default=0.001,
                     help="measurement noise std in meters")
    sim.add_argument("--face-subset", default=None,
                     help="comma-separated face indices to sample from")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", required=True, help="measurement CSV path")
    sim.add_argument("--ground-truth", default=None,
                     help="ground-truth JSON path (default: alongside output)")
    sim.set_defaults(func=cmd_simulate)

    loc = sub.add_parser("localize", help="run the filter on a measurement file")
    loc.add_argument("--mesh", required=True)
    loc.add_argument("--measurements", required=True, help="measurement CSV")
    loc.add_argument("--config", default=None, help="YAML parameter profile")
    loc.add_argument("--seed", type=int, default=None, help="override config seed")
    loc.add_argument("--workers", type=int, default=None,
                     help="threads for in-filter particle batches")
    loc.add_argument("--ground-truth", default=None,
                     help="ground-truth JSON; enables pose-error reporting")
    loc.add_argument("--emit-trace", action="store_true",
                     help="also write the per-step index trace CSV")
    loc.add_argument("--omit-timing", action="store_true",
                     help="strip wall-clock fields from the report")
    loc.add_argument("--output", required=True, help="report JSON path")
    loc.set_defaults(func=cmd_localize)

    bat = sub.add_parser("batch", help="run repeated trials, optionally sweeping m")
    bat.add_argument("--mesh", required=True)
    bat.add_argument("--config", default=None)
    bat.add_argument("--trials", type=int, default=20)
    bat.add_argument("--seed", type=int, default=None,
                     help="base filter seed (trial i adds i)")
    bat.add_argument("--workers", type=int, default=None,
                     help="threads inside each filter run")
    bat.add_argument("--trial-workers", type=int, default=1,
                     help="processes running whole trials in parallel")
    bat.add_argument("--measurements", default=None,
                     help="reuse one measurement CSV for every trial")
    bat.add_argument("--ground-truth", default=None,
                     help="ground-truth JSON for --measurements")
    bat.add_argument("--true-pose", default="0,0,0,0,0,0")
    bat.add_argument("--count", type=int, default=15)
    bat.add_argument("--noise-sigma", type=float, default=0.001)
    bat.add_argument("--face-subset", default=None)
    bat.add_argument("--scenario-seed", type=int, default=0,
                     help="base measurement seed (trial i adds i)")
    bat.add_argument("--use-truth", action="store_true",
                     help="classify success by pose error instead of index")
    bat.add_argument("--sweep-m", default=None,
                     help="memory values: '1..15' or '1,5,10'")
    bat.add_argument("--omit-timing", action="store_true")
    bat.add_argument("--output", required=True, help="summary JSON path")
    bat.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        # A ValueError subclass, but a numerical failure, not bad input.
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except (InvalidConfigError, InvalidFaceSubsetError, EmptyMeshError,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeshlocError, FloatingPointError, ArithmeticError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
