"""Command-line front end: simulate scenarios, run the filter, batch trials.

Exit codes: 0 success, 2 refused input (bad flags, bad config, missing
files: `InvalidConfigError`) or a file the OS refuses to read or write
(`OSError`), 3 runtime or numerical failure (`MeshlocError`), any other
`ValueError` and a `MemoryError` included.  Every report embeds the fully
resolved configuration as a profile that ``--config`` reads back, so a
report plus the mesh is enough to rerun the exact experiment.  Timing fields are
wall-clock and therefore not a function of the seed; ``--omit-timing``
strips them so reports from repeated runs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from .errors import (InvalidConfigError, MeshlocError, as_count, json_text, read_lines,
                     write_text)
from .geometry import Pose, load_obj
from .metrics import TrialReport, aggregate_reports
from .mupf import _MAX_MEMORY, FilterConfig, run
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

REPORT_SCHEMA = "meshloc-report-3"
_TIMING_KEYS = ("elapsed", "mean_elapsed", "max_elapsed")


def _parse_pose(text: str) -> Pose:
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 6:
        raise InvalidConfigError("--true-pose must be x,y,z,phi,theta,psi "
                                 f"(6 comma-separated numbers), got {text!r}")
    return Pose.from_array(np.asarray(parts))


def _parse_face_subset(text: str | None) -> tuple[int, ...] | None:
    if text is None or text.strip() == "":
        return None
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InvalidConfigError("--face-subset must be comma-separated face "
                                 f"indices, got {text!r}") from None


def _parse_sweep(text: str) -> list[int]:
    """Accept '1..15' (inclusive range) or a comma list like '1,5,10'.

    A range is checked by its ends before its list is built.
    """
    text = text.strip()
    try:
        ends = [int(v) for v in text.split("..", 1)] if ".." in text else None
        values = ends if ends is not None else [int(v) for v in text.split(",")]
    except ValueError:
        raise InvalidConfigError("--sweep-m must be an inclusive range '<lo>..<hi>' or "
                                 f"comma-separated integers, got {text!r}") from None
    if ends is not None and ends[0] > ends[1]:
        raise InvalidConfigError(f"--sweep-m range {text!r} is empty")
    for value in values:
        as_count(value, "--sweep-m value", 1, _MAX_MEMORY)
    return list(range(ends[0], ends[1] + 1)) if ends is not None else values


def _require_outputs(args, inputs: tuple, outputs: dict) -> None:
    """Refuse, before anything is written, an output path that is a
    directory, lies below a file, or names an input or another output of
    the same command.  ``inputs`` are the destinations of the flags the
    command reads; ``outputs`` maps the flag that sets or derives each
    output path to it."""
    taken = {f"--{dest.replace('_', '-')}": os.path.realpath(getattr(args, dest))
             for dest in inputs if getattr(args, dest) is not None}
    for flag, path in outputs.items():
        if Path(path).is_dir():
            raise InvalidConfigError(f"{flag}: {path} is a directory")
        parent = next(p for p in Path(path).parents if p.exists())
        if not parent.is_dir():
            raise InvalidConfigError(f"{flag}: {parent} is not a directory")
        real = os.path.realpath(path)
        other = next((f for f, p in taken.items() if p == real), None)
        if other is not None:
            raise InvalidConfigError(f"{flag}: {path} is the same file as {other}")
        taken[flag] = real


def _load_config(path: str | None, overrides: dict) -> FilterConfig:
    mapping = {}
    if path is not None:
        # A stream named like the file, so YAML errors name it as before.
        text = io.StringIO("".join(read_lines(path, "config")))
        text.name = path
        try:
            loaded = yaml.safe_load(text)
        except (yaml.YAMLError, ValueError) as exc:   # ValueError: an integer too long
            raise InvalidConfigError(f"{path}: malformed YAML: {exc}") from None
        if not isinstance(loaded, (dict, type(None))):   # null: an empty file
            raise InvalidConfigError(f"{path}: config must be a mapping")
        mapping.update(loaded or {})
    mapping.update({k: v for k, v in overrides.items() if v is not None})
    return FilterConfig.from_mapping(mapping)


def _report_to_dict(report: TrialReport) -> dict:
    return dataclasses.asdict(report) | {"estimate": report.estimate.to_array().tolist()}


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in _TIMING_KEYS}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _write_json(path, payload: dict, omit_timing: bool) -> None:
    write_text(path, json_text(_strip_timing(payload) if omit_timing else payload))


# Scenario flag destinations.  Their parsers default them to None, so that
# `batch --measurements` can name the ones given; `_scenario` applies the
# defaults.
_SCENARIO_DESTS = ("true_pose", "count", "noise_sigma", "face_subset", "scenario_seed")


# The destinations of the input flags of `localize` and `batch`.
_INPUT_DESTS = ("mesh", "measurements", "config", "ground_truth")


def _scenario(args, seed: int | None) -> ScenarioSpec:
    return ScenarioSpec(
        mesh_path=args.mesh,
        true_pose=_parse_pose("0,0,0,0,0,0" if args.true_pose is None else args.true_pose),
        n_measurements=15 if args.count is None else args.count,
        noise_sigma=0.001 if args.noise_sigma is None else args.noise_sigma,
        face_subset=_parse_face_subset(args.face_subset),
        seed=0 if seed is None else seed)


def cmd_simulate(args) -> int:
    truth_path = args.ground_truth or Path(args.output).with_suffix(".truth.json")
    _require_outputs(args, ("mesh",), {"--output": args.output, "--ground-truth": truth_path})
    spec = _scenario(args, args.seed)
    measurements, contacts = sample_contacts(spec, load_obj(args.mesh))
    write_measurements_csv(args.output, measurements)
    write_ground_truth_json(truth_path, spec, contacts)
    logger.info("wrote %d measurements to %s (ground truth: %s)",
                len(measurements), args.output, truth_path)
    return 0


def cmd_localize(args) -> int:
    trace_path = Path(args.output).with_suffix(".trace.csv")
    _require_outputs(args, _INPUT_DESTS, {"--output": args.output}
                     | ({"--emit-trace": trace_path} if args.emit_trace else {}))
    config = _load_config(args.config, {"seed": args.seed})
    mesh = load_obj(args.mesh)
    measurements = read_measurements_csv(args.measurements)

    spec = read_ground_truth_json(args.ground_truth)[0] if args.ground_truth else None
    _, report = run(measurements, config.model_for(mesh), config,
                    truth=None if spec is None else spec.true_pose)
    payload = {
        "schema": REPORT_SCHEMA,
        "kind": "localize",
        "mesh": args.mesh,
        "measurements": args.measurements,
        "config": config.to_dict(),
        "scenario": None if spec is None else spec.to_dict(),
        "report": _report_to_dict(report),
    }
    _write_json(args.output, payload, args.omit_timing)
    if args.emit_trace:
        write_text(trace_path, "t,index\n" + "".join(
            f"{t},{v:.9g}\n" for t, v in enumerate(report.index_trace, start=1)))
        logger.info("wrote index trace to %s", trace_path)
    logger.info("final index %.6g m, success=%s", report.final_index, report.success)
    return 0


def _batch_trial(trial: tuple) -> TrialReport:
    """One batch trial ``(mesh, config, measurements, truth)``; module-level
    so process pools can pickle it."""
    mesh, config, measurements, truth = trial
    _, report = run(measurements, config.model_for(mesh), config, truth=truth)
    return report


def _run_batch(trials: list[tuple], trial_workers: int) -> list[TrialReport]:
    # A process pool starts all its workers at once: no more than there are
    # jobs or CPUs.
    workers = min(trial_workers, len(trials), os.cpu_count() or 1)
    if workers <= 1:
        return [_batch_trial(t) for t in trials]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_batch_trial, trials))


def cmd_batch(args) -> int:
    sweep = _parse_sweep(args.sweep_m) if args.sweep_m else None
    sweep_csv = Path(args.output).with_suffix(".sweep.csv")
    _require_outputs(args, _INPUT_DESTS, {"--output": args.output}
                     | ({"--sweep-m": sweep_csv} if sweep is not None else {}))
    config = _load_config(args.config, {"seed": args.seed})
    given = [f"--{dest.replace('_', '-')}" for dest in _SCENARIO_DESTS
             if getattr(args, dest) is not None]
    if args.measurements is not None and given:
        raise InvalidConfigError(f"{', '.join(given)}: scenario flags do not apply "
                                 "to --measurements")
    scenario = _scenario(args, args.scenario_seed) if args.measurements is None else None
    as_count(args.trials, "--trials", 1, sys.maxsize)   # the most trials a list can hold
    as_count(args.trial_workers, "--trial-workers", 1)
    if args.ground_truth and args.measurements is None:
        raise InvalidConfigError("--ground-truth needs --measurements; "
                                 "simulated trials take --use-truth")
    if args.use_truth and args.measurements is not None and not args.ground_truth:
        raise InvalidConfigError("--use-truth with --measurements needs --ground-truth")
    mesh = load_obj(args.mesh)
    if scenario is None:
        per_trial = [read_measurements_csv(args.measurements)] * args.trials
    else:  # trial i draws scenario seed + i, once for every memory value
        per_trial = [sample_contacts(dataclasses.replace(scenario, seed=scenario.seed + i),
                                     mesh)[0] for i in range(args.trials)]

    truth = None
    if args.ground_truth:
        truth = read_ground_truth_json(args.ground_truth)[0].true_pose
    elif args.use_truth:
        truth = scenario.true_pose

    # Every (memory, trial) job of the command in one memory-major list, run
    # once, then cut into one run of `--trials` reports per memory value.
    memories = sweep if sweep is not None else [config.memory]
    reports = _run_batch([(mesh, dataclasses.replace(config, memory=memory, seed=config.seed + i),
                           measurements, truth)
                          for memory in memories for i, measurements in enumerate(per_trial)],
                         args.trial_workers)
    runs = [reports[k:k + args.trials] for k in range(0, len(reports), args.trials)]
    per_m = [{"memory": memory,
              "aggregate": aggregate_reports(part),
              "trials": [_report_to_dict(r) for r in part]}
             for memory, part in zip(memories, runs)]

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
        columns = [c for c in ("mean_final_index", "median_final_index",
                               "reliability", "mean_elapsed")
                   if not (args.omit_timing and c in _TIMING_KEYS)]
        write_text(sweep_csv, ",".join(["m", *columns]) + "\n" + "".join(
            ",".join([str(e["memory"]), *(f"{e['aggregate'][c]:.9g}" for c in columns)])
            + "\n" for e in per_m))
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

    # Flags shared by several subcommands, each stated once.
    mesh = argparse.ArgumentParser(add_help=False)
    mesh.add_argument("--mesh", required=True, help="OBJ mesh file")
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--true-pose", help="x,y,z,phi,theta,psi of the object")
    scenario.add_argument("--count", type=int, help="number of measurements")
    scenario.add_argument("--noise-sigma", type=float,
                          help="measurement noise std in meters")
    scenario.add_argument("--face-subset",
                          help="comma-separated face indices to sample from")
    filt = argparse.ArgumentParser(add_help=False)
    filt.add_argument("--config", default=None, help="YAML parameter profile")
    filt.add_argument("--seed", type=int, default=None,
                      help="override the profile seed (batch trial i adds i)")
    filt.add_argument("--omit-timing", action="store_true",
                      help="strip wall-clock fields from the report")

    sim = sub.add_parser("simulate", parents=[mesh, scenario],
                         help="generate noisy contact measurements")
    sim.add_argument("--seed", type=int, default=0, help="scenario seed")
    sim.add_argument("--output", required=True, help="measurement CSV path")
    sim.add_argument("--ground-truth", default=None,
                     help="ground-truth JSON path (default: alongside output)")
    sim.set_defaults(func=cmd_simulate)

    loc = sub.add_parser("localize", parents=[mesh, filt],
                         help="run the filter on a measurement file")
    loc.add_argument("--measurements", required=True, help="measurement CSV")
    loc.add_argument("--ground-truth", default=None,
                     help="ground-truth JSON; enables pose-error reporting")
    loc.add_argument("--emit-trace", action="store_true",
                     help="also write the per-step index trace CSV")
    loc.add_argument("--output", required=True, help="report JSON path")
    loc.set_defaults(func=cmd_localize)

    bat = sub.add_parser("batch", parents=[mesh, scenario, filt],
                         help="run repeated trials, optionally sweeping m")
    bat.add_argument("--trials", type=int, default=20)
    bat.add_argument("--trial-workers", type=int, default=1,
                     help="processes running whole trials in parallel")
    bat.add_argument("--measurements", default=None,
                     help="reuse one measurement CSV for every trial")
    bat.add_argument("--ground-truth", default=None,
                     help="ground-truth JSON for --measurements")
    bat.add_argument("--scenario-seed", type=int,
                     help="base measurement seed (trial i adds i)")
    bat.add_argument("--use-truth", action="store_true",
                     help="classify success by pose error instead of index")
    bat.add_argument("--sweep-m", default=None,
                     help="memory values: '1..15' or '1,5,10'")
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
    except (InvalidConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeshlocError, ArithmeticError, ValueError) as exc:   # LinAlgError among them
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("runtime failure: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
