#!/usr/bin/env python3
"""Layered contact-localization benchmark for meshloc.

Run from the repository root::

    python3 bench/run.py --workload box-desk --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30

An untraced run (``--trace 0``) drives the public streaming API the way a
probing robot does, ``init`` and then ``step`` + ``extract_pose`` per
contact, and prints the end-to-end metrics.  A traced run (``--trace 1``)
wraps the package's layer functions (see ``spans.py``), alternates untraced
and traced passes over the workload's reference trials, and prints the
per-layer metrics and the tracing overhead.  ``--workload all`` runs every
workload, untraced and traced, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the host, the estimate digest and the other facts behind the numbers.
"""

import os
import sys

# One BLAS thread per process, fixed before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MESH_BUILD_REPEATS = 5
TAIL_BEYOND = 10                 # samples that must lie beyond the tail
CONVERGED_INDEX = 0.01           # meters: "converged" for contacts_to_1cm


def _import_package():
    """Import meshloc from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import meshloc
    if Path(meshloc.__file__).resolve().parent != ROOT / "src" / "meshloc":
        raise SystemExit(f"meshloc imported from {meshloc.__file__}, "
                         f"not from {ROOT / 'src'}")
    return meshloc


class Loop:
    """Per-contact records of one pass of trials through the streaming API."""

    def __init__(self):
        self.latencies = []      # seconds per step + extract_pose pair
        self.estimates = {}      # trial index -> [PoseEstimate]
        self.support = []        # non-zero extraction weights / N
        self.parents = []        # unique resampling parents / N
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.elapsed = 0.0


def timed_contact(loop, trial, state, y, model, mupf):
    """One ``step`` + ``extract_pose`` pair, timed and recorded in ``loop``."""
    t0 = time.perf_counter()
    state, diag = mupf.step(state, y, model, trial.config)
    est = mupf.extract_pose(state, model, trial.config)
    loop.latencies.append(time.perf_counter() - t0)
    loop.estimates[trial.index].append(est)
    n = trial.config.n_particles
    loop.support.append(int((est.extraction_weights > 0).sum()) / n)
    if diag["resampled"]:
        loop.parents.append(diag["unique_parents"] / n)
    return state


def trial_failed(loops, trial):
    for loop in loops:
        loop.failed += 1
    print(f"trial {trial.index} raised:", file=sys.stderr)
    traceback.print_exc()


def drive(trials, model, mupf, keep_going) -> Loop:
    """Run trials contact by contact until ``keep_going(loop)`` is false."""
    loop = Loop()
    started = time.perf_counter()
    for trial in trials:
        loop.attempted += 1
        loop.estimates[trial.index] = []
        finished = True
        try:
            state = mupf.init(trial.config)
            for k, y in enumerate(trial.measurements, start=1):
                state = timed_contact(loop, trial, state, y, model, mupf)
                if k < len(trial.measurements) and not keep_going(loop):
                    finished = False
                    break
        except Exception:
            trial_failed([loop], trial)
        loop.completed += finished
        if not keep_going(loop):
            break
    loop.elapsed = time.perf_counter() - started
    return loop


def lockstep(trials, model, mupf, tracer):
    """Run each trial twice side by side, untraced then traced per contact,
    so that both runs of a contact see the same host speed."""
    plain, traced = Loop(), Loop()
    for trial in trials:
        states = []
        for loop in (plain, traced):
            loop.attempted += 1
            loop.estimates[trial.index] = []
        try:
            for ctx in (nullcontext(), tracer.installed()):
                with ctx:
                    states.append(mupf.init(trial.config))
            for y in trial.measurements:
                states[0] = timed_contact(plain, trial, states[0], y, model, mupf)
                with tracer.installed():
                    states[1] = timed_contact(traced, trial, states[1], y, model, mupf)
        except Exception:
            trial_failed([plain, traced], trial)
    return plain, traced


def estimates_finite(loop) -> bool:
    return all(math.isfinite(e.map_score) and all(map(math.isfinite, e.pose.to_array()))
               for ests in loop.estimates.values() for e in ests)


def digest(loop, reference) -> str:
    """SHA-256 of the reference trials' per-contact poses and MAP scores."""
    h = hashlib.sha256()
    for trial in reference:
        h.update(str(trial.index).encode())
        for e in loop.estimates.get(trial.index, []):
            h.update(e.pose.to_array().astype("<f8").tobytes())
            h.update(float(e.map_score).hex().encode())
    return h.hexdigest()


def quality(workload, setup, loop, reference, metrics_module):
    """Success, final index and contacts to 1 cm over the reference trials.

    Mirrors ``meshloc.run``: each estimate is rated against the trial's full
    contact set, and success uses ``metrics.success_test``.
    """
    import numpy as np
    from meshloc import TrialReport, pose_error

    rows = []
    for trial in reference:
        ests = loop.estimates.get(trial.index, [])
        if len(ests) != len(trial.measurements):
            continue                 # raised: counted in error_rate
        trace = [metrics_module.performance_index(trial.measurements, e.pose, setup.mesh)
                 for e in ests]
        truth = setup.truth if workload.all_faces else None
        final_pose = ests[-1].pose.canonical()
        pos_err = ang_err = None
        if truth is not None:
            pos_err, ang_err = pose_error(final_pose, truth)
        report = TrialReport(estimate=final_pose, index_trace=trace,
                             final_index=trace[-1], position_error=pos_err,
                             orientation_error=ang_err, elapsed=0.0,
                             success=False, seed=int(trial.config.seed))
        success = metrics_module.success_test(report, truth=truth)
        settled = len(trace) + 1
        while settled > 1 and trace[settled - 2] < CONVERGED_INDEX:
            settled -= 1
        rows.append((success, trace[-1], settled))
    if not rows:
        return None
    return {
        "success_rate": float(np.mean([r[0] for r in rows])),
        "final_index_mm_p50": 1e3 * float(np.median([r[1] for r in rows])),
        "contacts_to_1cm_p50": float(np.median([r[2] for r in rows])),
        "trials": len(rows),
    }


def host_record() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:            # older numpy: no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def tail_contacts(percentile: float) -> int:
    """Contacts needed for TAIL_BEYOND samples beyond ``percentile``."""
    return math.ceil(TAIL_BEYOND / (1.0 - percentile / 100.0))


def untraced(args, workload, setup, mupf, metrics_module, setup_s):
    import numpy as np
    reference = setup.trials[:workload.reference_trials]
    min_contacts = tail_contacts(workload.tail_percentile)
    deadline = time.perf_counter() + args.seconds

    def keep_going(loop):
        return (time.perf_counter() < deadline
                or len(loop.latencies) < min_contacts
                or loop.completed < len(reference))

    loop = drive(setup.trials, setup.model, mupf, keep_going)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q = quality(workload, setup, loop, reference, metrics_module)
    lat_ms = 1e3 * np.asarray(loop.latencies)
    correct = estimates_finite(loop) and q is not None
    record = {
        "workload": workload.name, "trace": 0, "seed": args.seed,
        "seconds": args.seconds, "host": host_record(),
        "contacts": len(lat_ms), "trials_attempted": loop.attempted,
        "trials_failed": loop.failed,
        "error_rate": loop.failed / max(loop.attempted, 1),
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": int((lat_ms > np.percentile(lat_ms, workload.tail_percentile)).sum()),
        "reference_trials": workload.reference_trials,
        "quality_trials": q["trials"] if q else 0,
        "digest": digest(loop, reference),
    }
    metrics = {}
    if q is not None:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "contact_latency_ms_p50": metric(float(np.median(lat_ms)), "ms"),
            "contact_latency_ms_tail": metric(
                float(np.percentile(lat_ms, workload.tail_percentile)), "ms"),
            "contacts_per_s": metric(len(lat_ms) / loop.elapsed, "1/s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "success_rate": metric(q["success_rate"], "ratio"),
            "final_index_mm_p50": metric(q["final_index_mm_p50"], "mm"),
            "contacts_to_1cm_p50": metric(q["contacts_to_1cm_p50"], "count"),
        }
    return record, correct, loop.attempted, loop.failed, metrics


def traced(args, workload, setup, mupf, metrics_module):
    import numpy as np
    from spans import SPAN_NAMES, Tracer, combine

    reference = setup.trials[:workload.reference_trials]
    # Passes over the reference trials; start another only if it fits in
    # the run's seconds.
    plain, tracer, traced_loops = [], Tracer(), []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        untraced_loop, loop = lockstep(reference, setup.model, mupf, tracer)
        with tracer.installed():
            quality(workload, setup, loop, reference, metrics_module)
        plain.append(untraced_loop)
        traced_loops.append(loop)
        now = time.perf_counter()
        if now - started + (now - pass_started) > args.seconds:
            break
    with tracer.installed():
        for _ in range(MESH_BUILD_REPEATS):
            workload.build_mesh()

    by_parent = tracer.reduce()
    # The quality pass's index calls query the mesh off the contact path,
    # so their geometry spans are left out of the geometry layer.
    stats = {name: combine(by_parent[name]) for name in SPAN_NAMES}
    stats["geometry.closest_points"] = combine(
        by_parent["geometry.closest_points"], skip={"metrics.performance_index"})
    recompute = by_parent["ukf.log_likelihood_batch"]["mupf.extract_pose"]
    build = stats["geometry.mesh_build"]
    passes = len(traced_loops)
    missing = [name for name in SPAN_NAMES if stats[name]["calls"] == 0]
    if recompute["calls"] == 0:
        missing.append("ukf.log_likelihood_batch under mupf.extract_pose")
    digests = {digest(loop, reference) for loop in plain + traced_loops}
    plain_ms = 1e3 * np.concatenate([loop.latencies for loop in plain])
    traced_ms = 1e3 * np.concatenate([loop.latencies for loop in traced_loops])
    contact_s = float(traced_ms.sum()) / 1e3
    all_loops = plain + traced_loops
    attempted = sum(loop.attempted for loop in all_loops)
    failed = sum(loop.failed for loop in all_loops)
    correct = (not missing and len(digests) == 1
               and all(estimates_finite(loop) for loop in all_loops))
    record = {
        "workload": workload.name, "trace": 1, "seed": args.seed,
        "seconds": args.seconds, "host": host_record(),
        "passes": {"untraced": len(plain), "traced": passes},
        "reference_trials": workload.reference_trials,
        "contacts_per_pass": len(traced_loops[0].latencies),
        "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "digests_match": len(digests) == 1,
        "missing_spans": missing,
        "untraced_contact_latency_ms_p50": float(np.median(plain_ms)),
        "traced_contact_latency_ms_p50": float(np.median(traced_ms)),
        # Shares of the traced contact time (step + extract_pose) per layer.
        "contact_time_shares": {
            "geometry.closest_points": stats["geometry.closest_points"]["total_s"] / contact_s,
            "mupf.step": stats["mupf.step"]["total_s"] / contact_s,
            "mupf.extract_pose": stats["mupf.extract_pose"]["total_s"] / contact_s,
            "mupf.extract_pose.self": stats["mupf.extract_pose"]["self_s"] / contact_s,
            "mupf.extract_pose.loglik_recompute": recompute["total_s"] / contact_s,
        },
    }

    def per_pass(name, key="self_s"):
        return stats[name][key] / passes

    def count(name, key):
        return stats[name]["counts"][key] / passes

    metrics = {
        "geometry.closest_points.calls": metric(per_pass("geometry.closest_points", "calls"), "count"),
        "geometry.closest_points.queries": metric(count("geometry.closest_points", "queries"), "count"),
        "geometry.closest_points.self_s": metric(per_pass("geometry.closest_points"), "s"),
        "geometry.closest_points.us_per_query": metric(
            1e6 * stats["geometry.closest_points"]["self_s"]
            / max(stats["geometry.closest_points"]["counts"]["queries"], 1), "us"),
        "geometry.mesh_build_s": metric(build["total_s"] / MESH_BUILD_REPEATS, "s"),
        "unscented.sigma_points_batch.calls": metric(per_pass("unscented.sigma_points_batch", "calls"), "count"),
        "unscented.sigma_points_batch.self_s": metric(per_pass("unscented.sigma_points_batch"), "s"),
        "ukf.ukf_step_batch.calls": metric(per_pass("ukf.ukf_step_batch", "calls"), "count"),
        "ukf.ukf_step_batch.self_s": metric(per_pass("ukf.ukf_step_batch"), "s"),
        "ukf.log_likelihood_batch.calls": metric(per_pass("ukf.log_likelihood_batch", "calls"), "count"),
        "ukf.log_likelihood_batch.pairs": metric(count("ukf.log_likelihood_batch", "pairs"), "count"),
        "ukf.log_likelihood_batch.self_s": metric(per_pass("ukf.log_likelihood_batch"), "s"),
        "mupf.step.self_s": metric(per_pass("mupf.step"), "s"),
        "mupf.extract_pose.self_s": metric(per_pass("mupf.extract_pose"), "s"),
        "mupf.extract_pose.loglik_recompute_s": metric(recompute["total_s"] / passes, "s"),
        "mupf.init.s": metric(per_pass("mupf.init", "total_s"), "s"),
        "mupf.extract_support_ratio": metric(float(np.mean(traced_loops[0].support)), "ratio"),
        "mupf.unique_parents_ratio": metric(float(np.mean(traced_loops[0].parents)), "ratio"),
        "metrics.performance_index.calls": metric(per_pass("metrics.performance_index", "calls"), "count"),
        "metrics.performance_index.total_s": metric(
            per_pass("metrics.performance_index", "total_s"), "s"),
        "trace.overhead_ms": metric(float(np.median(traced_ms) - np.median(plain_ms)), "ms"),
    }
    return record, correct, attempted, failed, metrics


def set_up(name: str, seed: int):
    """Import the package, build the workload, run one untimed contact.

    Returns ``(seconds, workload, setup, mupf, metrics module)``.
    """
    started = time.perf_counter()
    _import_package()
    from meshloc import metrics as metrics_module
    from meshloc import mupf
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    setup = workload.setup(seed)
    warm = setup.trials[0]
    state = mupf.init(warm.config)
    state, _ = mupf.step(state, warm.measurements[0], setup.model, warm.config)
    mupf.extract_pose(state, setup.model, warm.config)
    return time.perf_counter() - started, workload, setup, mupf, metrics_module


def setup_seconds(name: str, seed: int) -> list:
    """Set-up time of SETUP_REPEATS fresh processes, one after another."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import run; print(run.set_up({name!r}, {seed})[0])")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, check=True, timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_one(args) -> int:
    setup_times = setup_seconds(args.workload, args.seed) if args.trace == 0 else []
    _, workload, setup, mupf, metrics_module = set_up(args.workload, args.seed)
    setup_s = statistics.median(setup_times) if setup_times else None

    if args.trace:
        record, correct, attempted, failed, metrics = traced(
            args, workload, setup, mupf, metrics_module)
    else:
        record, correct, attempted, failed, metrics = untraced(
            args, workload, setup, mupf, metrics_module, setup_s)
    record["setup_runs_s"] = setup_times
    print(json.dumps({"record": record}, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {workload.name:12s} {name:42s} {m['value']:14.6g} {m['unit']}")
    if "error_rate" in record:
        print(f"  {workload.name:12s} {'error_rate':42s} {record['error_rate']:14.6g} ratio")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    from workloads import WORKLOADS
    results, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = record = None
            if proc.returncode == 0:
                result, record = json.loads(lines[-1]), json.loads(lines[0])["record"]
            else:
                print(f"  {name:12s} trace {trace} exited with code {proc.returncode}")
            results[f"{name}/trace{trace}"] = {
                "result": result, "digest": record["digest"] if record else None}
            ok = ok and result is not None and result["correct"]
        pair = [results[f"{name}/trace{t}"]["digest"] for t in (0, 1)]
        match = pair[0] == pair[1] and pair[0] is not None
        print(f"  {name:12s} {'untraced and traced digests match':42s} {match}")
        ok = ok and match
    print(json.dumps({"correct": ok, "runs": results}))
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["box-desk", "box-robot", "scan-refine", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        _import_package()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
