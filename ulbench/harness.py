"""Set-up, timed passes and checks of one benchmark run, in one process.

Every workload is a closed loop with one client: the next unit starts
only when the previous one, and its untimed check, has finished. No
extra threads or processes are started.
"""

from __future__ import annotations

import importlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import speed
from tracer import MODULES, Recorder
from workloads import TIMED_PART, WORKLOADS, Inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".ulbench"
DIGESTS = Path(__file__).with_name("digests.json")

# Output digests are recorded at this seed only; see record_digests.py.
DEFAULT_SEED = 0
# A set-up round repeats set-up until it has taken this long, at least
# once. One round precedes every pass, so that setup_s, the median over
# all rounds, samples the machine's speed over the whole run, as wall_s
# does, and not only in its first second.
SETUP_ROUND_SECONDS = 0.25


class ProgramMissing(RuntimeError):
    """The checkout holds no importable package under src/."""


def import_program():
    """Import the package from this checkout's src/, fresh each call."""
    package_dir = SRC / "ultralocal"
    if not (package_dir / "__init__.py").is_file():
        raise ProgramMissing("no package at %s" % package_dir)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "ultralocal"]:
        del sys.modules[name]
    package = importlib.import_module("ultralocal")
    for module in MODULES:
        importlib.import_module("ultralocal." + module)
    if Path(package.__file__).resolve().parent != package_dir.resolve():
        raise ProgramMissing("imported %s instead of %s" % (package.__file__, package_dir))
    return package


def work_dir(workload: str) -> Path:
    return STATE / "work" / workload


def set_up(workload: str, seed: int, seconds: float = SETUP_ROUND_SECONDS,
           index: int = 0):
    """One set-up round: import the package and build the workload's
    inputs, at least once and until `seconds` have been spent. Input set
    `index` 0 is drawn from `seed` itself, the one the output digests are
    recorded at; every other index draws a set of its own.

    Returns the last (package, inputs) and every set-up time, normalised
    to the reference speed (see speed.py).
    """
    times, spent = [], 0.0
    while not times or spent < seconds:
        shutil.rmtree(work_dir(workload), ignore_errors=True)
        before = speed.probe()
        start = perf_counter()
        package = import_program()
        rng = np.random.default_rng(seed if index == 0 else [seed, index])
        inputs = WORKLOADS[workload](package, rng, str(work_dir(workload)))
        elapsed = perf_counter() - start
        times.append(speed.normalise(elapsed, before, speed.probe()))
        spent += elapsed
    return package, inputs, times


def recorded_digests(workload: str) -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {})


@dataclass
class PassResult:
    traced: bool
    unit_times: dict               # unit key -> seconds at the reference speed
    raw_times: dict                # unit key -> seconds as measured
    failed: int
    problems: list
    elapsed: float                 # wall clock of the pass, checks included
    peak_rss_mb: float             # peak resident set of the process so far

    @property
    def wall(self) -> float:
        """Time the program spent on the pass, at the reference speed:
        its units, checks excluded."""
        return sum(self.unit_times.values())

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_times.values())


def _describe(exc: BaseException) -> str:
    return "raised " + traceback.format_exception_only(exc)[-1].strip()


def run_pass(inputs: Inputs, expected_digests: dict | None = None,
             recorder: Recorder | None = None, first_unit_id: int = 0):
    """Run every unit once, between two speed probes, then check its
    result (and digest, if given).

    Returns the PassResult and the results by unit key.
    """
    start = perf_counter()
    times, raw_times, problems, results = {}, {}, [], {}
    failed_units = set()
    for i, unit in enumerate(inputs.units):
        before = speed.probe()
        if recorder is not None:
            recorder.begin_unit(first_unit_id + i)
        t0 = perf_counter()
        try:
            result, unit_problems = unit.call(), []
        except Exception as exc:  # a unit that raises fails; the run goes on
            result, unit_problems = None, [_describe(exc)]
        raw_times[unit.key] = perf_counter() - t0
        if recorder is not None:
            recorder.end_unit()
        times[unit.key] = speed.normalise(raw_times[unit.key], before, speed.probe())
        if recorder is not None:
            recorder.scale_unit(first_unit_id + i, times[unit.key] / raw_times[unit.key])
        if not unit_problems:
            try:
                unit_problems = unit.check(result)
                if expected_digests is not None:
                    digest = unit.digest(result)
                    if digest != expected_digests.get(unit.key):
                        unit_problems.append("output digest %s, recorded %s"
                                             % (digest, expected_digests.get(unit.key)))
            except Exception as exc:  # a check that cannot read the output fails it
                unit_problems.append("check " + _describe(exc))
        results[unit.key] = result
        problems += ["%s: %s" % (unit.key, p) for p in unit_problems]
        if unit_problems:
            failed_units.add(i)
    pass_problems = inputs.check_pass(results)
    if pass_problems:
        problems += ["pass: %s" % p for p in pass_problems]
        failed_units = set(range(len(inputs.units)))
    return (PassResult(recorder is not None, times, raw_times, len(failed_units), problems,
                       perf_counter() - start,
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
            results)


def measure(workload: str, seed: int, seconds: float, recorder: Recorder | None = None,
            expected_digests: dict | None = None):
    """Repeat a set-up round and a pass on its inputs for about `seconds`.

    Every pass runs on an input set of its own, all drawn from `seed`, so
    that a run averages over as many inputs as it has passes. The output
    digests are checked on input set 0 only. The next set-up round and
    pass start only if they are expected to end in time, and at least one
    pass runs. With a recorder, untraced and traced passes alternate,
    starting untraced, each traced pass on the inputs of the untraced pass
    before it, and at least one of each runs. Returns every set-up time
    and every PassResult.
    """
    setup_times, passes = [], []
    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        traced = recorder is not None and len(passes) % 2 == 1
        index = len(passes) // 2 if recorder is not None else len(passes)
        package, inputs, times = set_up(workload, seed, index=index)
        setup_times += times
        if traced:
            recorder.install(package)
        try:
            result, _ = run_pass(inputs, expected_digests if index == 0 else None,
                                 recorder if traced else None,
                                 len(passes) * len(inputs.units))
        finally:
            if traced:
                recorder.uninstall()
        passes.append(result)
        now = perf_counter()
        if recorder is not None and len(passes) < 2:
            continue
        if now - start + (now - cycle_start) > seconds:
            return setup_times, passes


def timed_units(workload: str, passes: list) -> list:
    """Unit times of the untraced passes, over the workload's timed part."""
    prefix = TIMED_PART[workload] + "/"
    return [t for p in passes if not p.traced
            for key, t in p.unit_times.items() if key.startswith(prefix)]


def end_to_end(workload: str, setup_times: list, passes: list) -> dict:
    """End-to-end metrics from the untraced passes; times are at the
    reference speed."""
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall for p in passes if not p.traced),
        "unit_p50_s": statistics.median(timed_units(workload, passes)),
        # After the first set-up round and pass: later passes add a little
        # each (re-imports, allocator fragmentation), so the run's own peak
        # would grow with the number of passes a machine's speed allows.
        "peak_rss_mb": passes[0].peak_rss_mb,
    }


def unit_p90(workload: str, passes: list):
    """90th-percentile unit time over the timed part, or None when fewer
    than ten units lie beyond it."""
    units = timed_units(workload, passes)
    if len(units) < 100:
        return None
    return statistics.quantiles(units, n=10)[-1]


def overhead_frac(passes: list) -> float:
    """Traced pass wall over untraced pass wall (medians), minus 1."""
    traced = statistics.median(p.wall for p in passes if p.traced)
    plain = statistics.median(p.wall for p in passes if not p.traced)
    return traced / plain - 1.0
