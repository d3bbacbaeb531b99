"""Run one benchmark workload and print its metrics.

    python3 ulbench/run.py --workload cli --seed 3 --seconds 60 --trace 0

The package is imported from src/ of the checkout that holds this file.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, their
times normalised to the reference speed of speed.py; with
--trace 1 they are its per-layer metrics, from a run that alternates
untraced and traced passes and writes its spans to
.ulbench/spans-<workload>.npz. Exits 2 without a result when the package
or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys

import numpy as np

import harness
from tracer import Recorder, layer_metrics
from workloads import TIMED_PART, WORKLOADS

MAX_PROBLEMS_SHOWN = 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(harness.ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        expected = (harness.recorded_digests(args.workload)
                    if args.seed == harness.DEFAULT_SEED else None)
        # Untimed first import: fails early without a package, and keeps a
        # fresh checkout's one-off bytecode compile out of setup_s.
        harness.import_program()
    except (OSError, ValueError, harness.ProgramMissing) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    recorder = Recorder() if args.trace else None
    try:
        setup_times, passes = harness.measure(args.workload, args.seed, seconds,
                                              recorder, expected)
    finally:
        shutil.rmtree(harness.work_dir(args.workload), ignore_errors=True)

    attempted = sum(len(p.unit_times) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    for msg in problems[:MAX_PROBLEMS_SHOWN]:
        print("problem: %s" % msg, file=sys.stderr)

    if args.trace:
        span_path = harness.STATE / ("spans-%s.npz" % args.workload)
        recorder.write(span_path)
        values = layer_metrics(span_path, sum(p.traced for p in passes))
        values["trace.overhead_frac"] = harness.overhead_frac(passes)
        declared = spec["per_layer"]
    else:
        values = harness.end_to_end(args.workload, setup_times, passes)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, seconds, args.trace))
    print("python %s  numpy %s  nproc %d"
          % (platform.python_version(), np.__version__, os.cpu_count()))
    print("units %d attempted, %d failed, error_rate %g; %d passes of %d units (%d traced);"
          " %d set-ups"
          % (attempted, failed, failed / attempted, len(passes), len(passes[0].unit_times),
             sum(p.traced for p in passes), len(setup_times)))
    if not args.trace:
        untraced = [p for p in passes if not p.traced]
        print("pass time median %.6f s as measured, %.6f s at the reference speed"
              % (statistics.median(p.raw_wall for p in untraced),
                 statistics.median(p.wall for p in untraced)))
        timed = harness.timed_units(args.workload, passes)
        p90 = harness.unit_p90(args.workload, passes)
        print("unit_p50_s over %d %s units; unit_p90_s %s"
              % (len(timed), TIMED_PART[args.workload],
                 "%.6f s" % p90 if p90 is not None
                 else "not reported: fewer than 100 untraced units"))
    for name, m in metrics.items():
        print("%-42s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
