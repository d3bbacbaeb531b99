"""Print every end-to-end metric of every workload, with its steadiness.

    python3 ulbench/report.py                  # one run per workload
    python3 ulbench/report.py --runs 10        # steadiness check

Runs `run.py --trace 0` once per seed (seeds --seed, --seed+1, ...) for
each workload, one run at a time, and prints the Python and numpy
versions, nproc, the unit counts and, per metric, its median, quartiles
and spread: (q3 - q1) / median with quartiles from
statistics.quantiles(values, n=4). A spread is "steady" below a third of
the metric's bound in BENCHMARK.json. The exit code is 1 if any unit
failed or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")


def run_once(workload: str, seed: int, seconds) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit("%s failed (exit %d):\n%s" % (" ".join(cmd), proc.returncode,
                                                      proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="first seed")
    parser.add_argument("--seconds", type=float, help="override run_seconds")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    print("python %s  numpy %s  nproc %d  runs %d  first seed %d"
          % (platform.python_version(), np.__version__, os.cpu_count(),
             args.runs, args.seed))
    ok = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.seed + i, args.seconds) for i in range(args.runs)]
        attempted = [r["attempted"] for r in results]
        failed = sum(r["failed"] for r in results)
        ok &= failed == 0
        print("\n%s: units per run %s, %d failed of %d (error_rate %g)"
              % (workload, attempted, failed, sum(attempted), failed / sum(attempted)))
        print("  %-14s %-5s %12s %12s %12s %8s %6s  %s"
              % ("metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict"))
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median
            bound = metric["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                ok = False
            print("  %-14s %-5s %12.6f %12.6f %12.6f %8.4f %6.3f  %s"
                  % (metric["name"], metric["unit"], median, q1, q3, spread, bound, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
