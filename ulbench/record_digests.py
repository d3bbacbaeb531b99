"""Record the output digests that runs at the default seed must reproduce.

    python3 ulbench/record_digests.py

Runs one pass of every workload at the default seed, requires every
check to pass, and writes ulbench/digests.json. Scenario outputs are
meant to stay byte-identical, so re-record only for a change that is
supposed to alter them.
"""

from __future__ import annotations

import json
import shutil
import sys

import harness
from workloads import WORKLOADS


def main() -> int:
    digests = {}
    for workload in WORKLOADS:
        _, inputs, _ = harness.set_up(workload, harness.DEFAULT_SEED, seconds=0)
        try:
            result, outputs = harness.run_pass(inputs)
            if result.failed:
                print("%s: %s" % (workload, result.problems), file=sys.stderr)
                return 1
            digests[workload] = {unit.key: unit.digest(outputs[unit.key])
                                 for unit in inputs.units}
        finally:
            shutil.rmtree(harness.work_dir(workload), ignore_errors=True)
    with open(harness.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % harness.DIGESTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
