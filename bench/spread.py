#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Run from the repository root::

    python3 bench/spread.py --workload box-desk --runs 10 --seconds 30

Each run is a separate ``bench/run.py`` process with its own ``--seed``
(``--first-seed``, ``--first-seed + 1``, ...).  For every metric the script
prints the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the interquartile range as a share of the median.  Runs
that exit non-zero or report ``correct: false`` are listed and excluded.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    values, bad = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(RUN), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            bad.append(seed)
            sys.stderr.write(proc.stderr[-2000:])
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.6g}"
                                           for n, m in result["metrics"].items()),
              flush=True)

    summary = {}
    print(f"\n{args.workload}: {args.runs - len(bad)} good runs"
          + (f", failed seeds {bad}" if bad else ""))
    print(f"  {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name, (unit, vals) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / abs(med) if med else float("nan")
        summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                         "iqr_share": share, "values": vals}
        print(f"  {name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.3f}")
    print(json.dumps({"workload": args.workload,
                      "failed_seeds": bad, "metrics": summary}))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
