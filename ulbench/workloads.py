"""The workloads: how each builds its inputs, runs and checks a unit.

A workload's set-up turns the workload seed into a list of units, the
pass. The program only ever receives the generated configs. A unit's
`call` is the timed program work; its `check` runs untimed afterwards and
returns the problems it found, each of which fails the unit.

The benchmark runs two workloads, each made of two parts: `cli` runs the
`tracking` and `stabmap` parts, `library` the `xval` and `replay` parts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

H = 1e-3                       # default sample step of every scenario
FULL_ROWS = 20001              # rows of an undiverged default 20 s trace
# 150 samples per pass, as 15 short calls rather than cross_validate's
# default 3 x 50: each unit's time is normalised by speed probes at its
# ends (speed.py), which track the machine's speed over a 0.5 s call far
# better than over a 2.5 s one.
XVAL_SAMPLES = 10              # samples per cross_validate call
XVAL_CALLS = 15                # cross_validate calls per xval pass
MIN_AGREEMENT = 0.9            # acceptance criterion 5's agreement rate
CELLS_CHECKED = 16             # sampled cells re-classified per grid


@dataclass
class Unit:
    key: str
    call: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], str]


@dataclass
class Inputs:
    units: list
    # problems found across one pass, given its results by unit key
    check_pass: Callable[[dict], list] = field(default=lambda results: [])


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _is_nan(text: str) -> bool:
    try:
        return math.isnan(float(text))
    except ValueError:
        return False


def _read_metrics_txt(path) -> tuple[dict, list]:
    values, problems = {}, []
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(" = ")
            if not sep:
                problems.append("%s: malformed line %r" % (path, line))
                continue
            values[key] = value
            if _is_nan(value):
                problems.append("%s: %s is NaN" % (path, key))
    return values, problems


# ---------------------------------------------------------------- CLI units

@dataclass
class CliResult:
    code: int
    written: list
    stderr: str


def _run_cli(cli, argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = [line[len("wrote "):] for line in out.getvalue().splitlines()
               if line.startswith("wrote ")]
    return CliResult(code, written, err.getvalue())


def _files_digest(result: CliResult, out_dir: str) -> str:
    sha = hashlib.sha256()
    for path in sorted(result.written):
        rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
        sha.update(("%s %s\n" % (rel, _sha256_file(path))).encode())
    return sha.hexdigest()


def _cli_unit(ul, key, argv, out_dir, check_files) -> Unit:
    def check(result: CliResult) -> list:
        if result.code != 0:
            return ["exit code %d: %s" % (result.code, result.stderr.strip())]
        return check_files(result.written)

    return Unit(key, lambda: _run_cli(ul.cli, argv), check,
                lambda result: _files_digest(result, out_dir))


# ------------------------------------------------------------------ tracking

SIM_SCENARIOS = {"ipd-nominal": 1, "pid-nominal": 1, "ipd-delta": 2,
                 "pid-delta": 2, "compare": 6, "ip-attempt": 2}


def check_trace_csv(ul, path) -> list:
    """A trace file against the invariants the simulator guarantees."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    if header != ",".join(ul.sim.TRACE_COLUMNS):
        return ["%s: header %r" % (path, header)]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t, _, y_true, y_measured, y_ref, e = data.T[:6]
    problems = []
    if not np.isfinite(data).all():
        problems.append("%s: non-finite value" % path)
    if (y_ref - y_measured).tobytes() != e.tobytes():
        problems.append("%s: e != y_ref - y_measured" % path)
    if (np.arange(len(t)) * H).tobytes() != t.tobytes():
        problems.append("%s: t is not k*h" % path)
    if len(t) != FULL_ROWS and not abs(y_true[-1]) > ul.sim.BLOWUP_THRESHOLD:
        problems.append("%s: %d rows without divergence" % (path, len(t)))
    return problems


def setup_tracking(ul, rng, work) -> Inputs:
    """Each CLI simulation scenario once, with seeds drawn from the workload seed."""
    units = []
    for i, (scenario, traces) in enumerate(SIM_SCENARIOS.items()):
        out_dir = os.path.join(work, "u%d" % i)
        argv = ["--scenario", scenario, "--out", out_dir,
                "--seed", str(int(rng.integers(0, 2 ** 63)))]

        def check_files(written, scenario=scenario, traces=traces):
            csvs = [p for p in written if p.endswith(".csv")]
            metrics = [p for p in written if p.endswith("metrics.txt")]
            if len(csvs) != traces or len(metrics) != 1:
                return ["%s wrote %r" % (scenario, written)]
            problems = _read_metrics_txt(metrics[0])[1]
            for path in csvs:
                problems += check_trace_csv(ul, path)
            return problems

        units.append(_cli_unit(ul, "%d-%s" % (i, scenario), argv, out_dir, check_files))
    return Inputs(units)


# ------------------------------------------------------------------- stabmap

def setup_stabmap(ul, rng, work) -> Inputs:
    """The default fixed-T map, the all-T map, and fixed-T maps at two
    drawn filter constants, one of them at another axis resolution."""
    sm = ul.stabmap
    t1, t2 = (float("%.4g" % t) for t in np.exp(rng.uniform(np.log(0.01), np.log(1.5), 2)))
    variants = [
        ("fixed-default", [], sm.default_grid_spec()),
        ("fixed-drawn-t", ["t_value=%r" % t1], sm.default_grid_spec(t1)),
        ("all-t", [], sm.default_all_t_grid_spec()),
        ("fixed-301x101", ["t_value=%r" % t2, "kp_axis=-5,5,301", "alpha_axis=-5,5,101"],
         sm.GridSpec((-5.0, 5.0, 301), (-5.0, 5.0, 101), (t2,), sm.FIXED_T, 0)),
    ]
    units = []
    for i, (tag, sets, spec) in enumerate(variants):
        out_dir = os.path.join(work, "u%d" % i)
        scenario = "stabmap-fixed-t" if spec.aggregation == sm.FIXED_T else "stabmap-all-t"
        argv = ["--scenario", scenario, "--out", out_dir]
        for item in sets:
            argv += ["--set", item]
        cells = [(int(rng.integers(spec.kp_axis[2])), int(rng.integers(spec.alpha_axis[2])))
                 for _ in range(CELLS_CHECKED)]

        def check_files(written, spec=spec, cells=cells):
            grids = [p for p in written if p.endswith("grid.csv")]
            metrics = [p for p in written if p.endswith("metrics.txt")]
            if len(grids) != 1 or len(metrics) != 1 or len(written) != 2:
                return ["wrote %r" % (written,)]
            return check_grid_csv(ul, grids[0], metrics[0], spec, cells)

        units.append(_cli_unit(ul, "%d-%s" % (i, tag), argv, out_dir, check_files))
    return Inputs(units)


def check_grid_csv(ul, grid_path, metrics_path, spec, cells) -> list:
    """Grid file shape, summary lines, and sampled cells against the scalar
    stabmap.cell_verdict."""
    sm = ul.stabmap
    kps = spec.kp_values().tolist()
    alphas = spec.alpha_values().tolist()
    fixed = spec.aggregation == sm.FIXED_T
    with open(grid_path) as fh:
        lines = fh.read().split("\n")
    header, rows, summary, tail = lines[0], lines[1:-2], lines[-2], lines[-1]
    expected_header = "kp,alpha,verdict" if fixed else "kp,alpha,t,verdict"
    if header != expected_header or tail != "" or len(rows) != len(kps) * len(alphas):
        return ["%s: header %r, %d rows" % (grid_path, header, len(rows))]
    problems = []
    verdicts = [row.rpartition(",")[2] for row in rows]
    counts = {v: verdicts.count(v) for v in (sm.VERDICT_STABLE, sm.VERDICT_UNSTABLE,
                                              sm.VERDICT_MARGINAL, sm.VERDICT_EXCLUDED)}
    if sum(counts.values()) != len(rows):
        problems.append("%s: unknown verdict" % grid_path)
    fraction = counts[sm.VERDICT_STABLE] / len(rows)
    if summary != "# stable_fraction = %r" % fraction:
        problems.append("%s: summary %r, expected fraction %r" % (grid_path, summary, fraction))
    for i, j in cells:
        row = rows[i * len(alphas) + j].split(",")
        kp, alpha = kps[i], alphas[j]
        if row[:2] != [repr(kp), repr(alpha)]:
            problems.append("%s: cell (%d, %d) is %r" % (grid_path, i, j, row))
        elif row[-1] != sm.cell_verdict(kp, alpha, spec):
            problems.append("%s: cell kp=%r alpha=%r says %s, cell_verdict says %s"
                            % (grid_path, kp, alpha, row[-1],
                               sm.cell_verdict(kp, alpha, spec)))
    values, nan_problems = _read_metrics_txt(metrics_path)
    problems += nan_problems
    reported = {k: values.get(k + "_cells") for k in counts}
    if reported != {k: str(v) for k, v in counts.items()}:
        problems.append("%s: counts %r, grid has %r" % (metrics_path, reported, counts))
    if values.get("stable_fraction") != repr(fraction):
        problems.append("%s: stable_fraction %r" % (metrics_path, values.get("stable_fraction")))
    return problems


# ---------------------------------------------------------------------- xval

def setup_xval(ul, rng, work) -> Inputs:
    """cross_validate on the default fixed-T grid, which set-up sweeps."""
    sm = ul.stabmap
    grid = sm.sweep(sm.default_grid_spec())
    spec = grid.spec
    kps = spec.kp_values().tolist()
    alphas = spec.alpha_values().tolist()
    t = spec.t_axis[spec.t_index]

    def verdict_of(kp, alpha):
        i = int(round((kp - spec.kp_axis[0]) / (kps[1] - kps[0])))
        j = int(round((alpha - spec.alpha_axis[0]) / (alphas[1] - alphas[0])))
        if kps[i] != kp or alphas[j] != alpha:
            return None
        return grid.verdicts[i][j]

    def check(report) -> list:
        problems = []
        if len(report.checks) != XVAL_SAMPLES:
            problems.append("%d samples" % len(report.checks))
        for c in report.checks:
            where = "kp=%r alpha=%r" % (c.kp, c.alpha)
            if c.verdict != verdict_of(c.kp, c.alpha) or c.t_filter != t:
                problems.append("%s: verdict %s not the grid's" % (where, c.verdict))
            if c.max_root_real_part != sm.quartic_max_real_root(c.kp, c.alpha, t):
                problems.append("%s: root oracle mismatch" % where)
            if not abs(c.max_root_real_part) > report.boundary_band:
                problems.append("%s: sampled inside the boundary band" % where)
            if c.agrees != (c.diverged == (c.verdict == sm.VERDICT_UNSTABLE)):
                problems.append("%s: agrees flag inconsistent" % where)
            if c.verdict == sm.VERDICT_STABLE and c.diverged:
                problems.append("%s: stable verdict but the loop diverged" % where)
        agreed = sum(c.agrees for c in report.checks)
        if report.agreement_rate != agreed / len(report.checks):
            problems.append("agreement_rate %r != %d/%d"
                            % (report.agreement_rate, agreed, len(report.checks)))
        return problems

    units = []
    for i in range(XVAL_CALLS):
        seed = int(rng.integers(0, 2 ** 32))
        units.append(Unit("%d-seed%d" % (i, seed),
                          lambda seed=seed: ul.stabmap.cross_validate(grid, XVAL_SAMPLES, seed),
                          check,
                          lambda report: hashlib.sha256(report.summary().encode()).hexdigest()))

    def check_pass(results) -> list:
        # The agreement rate is a rate over samples; one call's few samples
        # can fall below it by chance (see README), so it is checked on
        # the pass's pooled samples.
        reports = [results.get(unit.key) for unit in units]
        checks = [c for r in reports if r is not None for c in r.checks]
        if not checks:
            return []
        rate = sum(c.agrees for c in checks) / len(checks)
        if rate < MIN_AGREEMENT:
            return ["pooled agreement %.3f over %d samples < %g"
                    % (rate, len(checks), MIN_AGREEMENT)]
        return []

    return Inputs(units, check_pass)


# -------------------------------------------------------------------- replay

REPLAY_TRACES = (("ipd", 1.0), ("ipd", 0.8), ("ipd", 0.5), ("pid", 0.8))
REPLAY_ALPHAS = (0.5, 1.0, 2.0)


def setup_replay(ul, rng, work) -> Inputs:
    """Trace CSVs written in set-up, replayed offline through both
    estimator variants at three alphas."""
    sim, control, cli = ul.sim, ul.control, ul.cli
    os.makedirs(work, exist_ok=True)
    plant = sim.example_plant(1.0)
    coeffs = (plant.a1, plant.a0, plant.b)
    estimators = [control.EstimatorConfig(
        nu=2, alpha=alpha, t_filter=0.1, variant=variant,
        plant_coeffs=coeffs if variant == control.ANALYSIS_FORM else None)
        for variant in (control.ANALYSIS_FORM, control.DELAYED_INPUT)
        for alpha in REPLAY_ALPHAS]

    units = []
    for i, (kind, delta) in enumerate(REPLAY_TRACES):
        cfg = cli.parse_config(None, {"scenario": "compare",
                                      "seed": str(int(rng.integers(0, 2 ** 63)))})
        if kind == "ipd":
            controller, estimator = cli.tuned_ipd_controller(cfg)
        else:
            controller, estimator = cli.tuned_pid_controller(cfg), None
        trace = sim.run_closed_loop(
            sim.example_plant(delta), controller, estimator, cfg.ref,
            sim.NoiseModel(cfg.sigma, cfg.seed), h=cfg.h, duration=cfg.duration,
            y0=cfg.y0, ydot0=cfg.ydot0, pid_filter_time=cfg.t_filter)
        path = os.path.join(work, "trace_%d_%s_%g.csv" % (i, kind, delta))
        trace.to_csv(path)
        # the replay that uses the loop's own estimator must reproduce f_hat
        own = estimators.index(estimator) if estimator in estimators else None
        units.append(_replay_unit(ul, "%d-%s-%g" % (i, kind, delta), path, trace,
                                  sim.compute_metrics(trace), estimators, own))
    return Inputs(units)


def _replay_unit(ul, key, path, trace, metrics, estimators, own) -> Unit:
    def call():
        sim = ul.sim
        cols = sim.load_trace_csv(path)
        estimates = [ul.control.replay_estimator(est, cols["y_measured"], cols["u"], trace.h)
                     for est in estimators]
        empty = np.empty(0)
        loaded = sim.SimulationTrace(
            cols["t"], cols["u"], cols["y_true"], cols["y_measured"], cols["y_ref"],
            cols["e"], cols["f_hat"], cols["f_true"], empty, empty, trace.h,
            trace.diverged)
        return cols, estimates, sim.compute_metrics(loaded)

    def check(result) -> list:
        cols, estimates, m = result
        problems = []
        if list(cols) != list(ul.sim.TRACE_COLUMNS):
            problems.append("columns %r" % list(cols))
        for name in ul.sim.TRACE_COLUMNS:
            if name in cols and cols[name].tobytes() != getattr(trace, name).tobytes():
                problems.append("column %s differs from the in-memory trace" % name)
        for est, f in zip(estimators, estimates):
            if not np.isfinite(f).all():
                problems.append("replay %s alpha=%g is not finite" % (est.variant, est.alpha))
        if own is not None and estimates[own].tobytes() != trace.f_hat.tobytes():
            problems.append("replay with the loop's estimator differs from f_hat")
        if any(math.isnan(v) for v in (m.rmse, m.iae, m.tail_max_abs_error)):
            problems.append("NaN metric %r" % (m,))
        if m != metrics:
            problems.append("metrics %r, in memory %r" % (m, metrics))
        return problems

    def digest(result) -> str:
        _, estimates, m = result
        sha = hashlib.sha256()
        for f in estimates:
            sha.update(f.tobytes())
        sha.update(repr(m).encode())
        return sha.hexdigest()

    return Unit(key, call, check, digest)


def _combine(**parts):
    """A workload that runs several parts, each in its own work directory
    and with unit keys prefixed by the part's name.

    The parts' units are interleaved, each part's spread evenly over the
    pass, so that every part samples the machine's speed across the whole
    run and not in one stretch of each pass.
    """
    def setup(ul, rng, work) -> Inputs:
        built = []
        for name, part in parts.items():
            inputs = part(ul, rng, os.path.join(work, name))
            for unit in inputs.units:
                unit.key = "%s/%s" % (name, unit.key)
            built.append(inputs)

        def check_pass(results) -> list:
            return [p for inputs in built for p in inputs.check_pass(results)]

        order = sorted(((i + 0.5) / len(inputs.units), n, i)
                       for n, inputs in enumerate(built) for i in range(len(inputs.units)))
        return Inputs([built[n].units[i] for _, n, i in order], check_pass)

    return setup


WORKLOADS = {
    "cli": _combine(tracking=setup_tracking, stabmap=setup_stabmap),
    "library": _combine(xval=setup_xval, replay=setup_replay),
}

# The part whose units unit_p50_s (and unit_p90_s) are taken over, so
# that the median falls among one part's units and not on the step
# between two parts' unit sizes. wall_s covers every unit of the pass.
TIMED_PART = {"cli": "stabmap", "library": "replay"}
