"""Command-line scenario runner.

Bundles the package's controllers, estimators, simulator, and stability
sweeps into eight named scenarios producing trace CSVs, metric reports,
and stability-map exports under a chosen output directory. Configuration
comes from an optional key=value file overridden by command-line flags;
every run is fully determined by (scenario, config, seed).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields

from .control import ANALYSIS_FORM, ESTIMATOR_VARIANTS, ControllerSpec, EstimatorConfig
from .pool import WorkerLost, run_jobs
from .poly import PolynomialError, expand_pole, ipd_gains_from_target, pid_gains_from_target
from .sim import (
    Metrics,
    NoiseModel,
    ReferenceTrajectory,
    compute_metrics,
    example_plant,
    run_closed_loop,
    sample_count,
)
from .stabmap import (
    DEFAULT_AXIS,
    FIXED_T,
    FOR_ALL_T,
    CellWithoutVerdict,
    FilterConstantOverflow,
    GridSpec,
    default_t_axis,
    export_grid,
    ip_loop_for_cell,
    quartic_max_real_root,
    sweep,
)


class ConfigError(ValueError):
    """Bad or missing configuration; message names the offending key."""


def _fmt(x: float) -> str:
    return "%g" % x


def _parse_float(key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError("config key '%s': expected a number, got '%s'" % (key, raw)) from None
    if not math.isfinite(v):
        raise ConfigError("config key '%s' must be finite, got '%s'" % (key, raw))
    return v


def _parse_positive(key: str, raw: str) -> float:
    v = _parse_float(key, raw)
    if not v > 0.0:
        raise ConfigError("config key '%s' must be > 0, got %s" % (key, raw))
    return v


def _parse_sigma(key: str, raw: str) -> float:
    v = _parse_float(key, raw)
    if v < 0.0:
        raise ConfigError("config key '%s' must be >= 0, got %s" % (key, raw))
    return v


def _parse_alpha(key: str, raw: str) -> float:
    v = _parse_float(key, raw)
    if v == 0.0:
        raise ConfigError("config key '%s' must be nonzero" % key)
    return v


def _parse_seed(key: str, raw: str) -> int:
    # base 0 reads 0x1F, 0b11 and 1_000; base 10 reads a leading zero (007)
    for base in (0, 10):
        try:
            v = int(raw, base)
            break
        except ValueError:
            pass
    else:
        raise ConfigError("config key '%s': expected an integer, got '%s'" % (key, raw))
    if not 0 <= v < 2 ** 64:
        raise ConfigError("config key '%s' must be an unsigned 64-bit integer" % key)
    return v


def _parse_deltas(key: str, raw: str) -> tuple:
    # each delta's _fmt tag names its trace file and metrics keys, so two
    # deltas with one tag would overwrite each other's outputs
    by_tag = {}
    for part in raw.split(","):
        part = part.strip()
        v = _parse_float(key, part)
        if not 0.0 <= v <= 1.0:
            raise ConfigError("delta must be within [0, 1], got %s" % part)
        tag = _fmt(v)
        if tag in by_tag:
            raise ConfigError("config key '%s': values %s and %s share the output tag '%s'"
                              % (key, by_tag[tag][0], part, tag))
        by_tag[tag] = (part, v)
    return tuple(v for _, v in by_tag.values())


def _parse_axis(key: str, raw: str) -> tuple:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError("config key '%s': expected 'min,max,count', got '%s'" % (key, raw))
    lo = _parse_float(key, parts[0])
    hi = _parse_float(key, parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigError("config key '%s': count must be an integer" % key) from None
    if not (lo < hi and count >= 2):
        raise ConfigError("config key '%s': need min < max and count >= 2" % key)
    return (lo, hi, count)


def _parse_t_axis(key: str, raw: str) -> tuple:
    return tuple(sorted(_parse_positive(key, p.strip()) for p in raw.split(",")))


def _parse_ref(key: str, raw: str) -> ReferenceTrajectory:
    head, sep, rest = raw.partition(":")
    head = head.strip()
    if head == "constant":
        return ReferenceTrajectory.constant(_parse_float(key, rest.strip() or "0"))
    if head == "smooth-step":
        parts = [p.strip() for p in rest.split(",")]
        if len(parts) != 4:
            raise ConfigError(
                "config key '%s': smooth-step needs 'smooth-step:y0,y1,t0,t1'" % key)
        a, b, t0, t1 = (_parse_float(key, p) for p in parts)
        try:
            return ReferenceTrajectory.smooth_step(a, b, t0, t1)
        except ValueError as exc:
            raise ConfigError("config key '%s': %s" % (key, exc)) from None
    raise ConfigError(
        "config key '%s': expected 'constant:<level>' or 'smooth-step:y0,y1,t0,t1'" % key)


def _parse_estimator(key: str, raw: str) -> str:
    v = raw.strip()
    if v not in ESTIMATOR_VARIANTS:
        raise ConfigError("config key '%s' must be %s"
                          % (key, " or ".join("'%s'" % n for n in ESTIMATOR_VARIANTS)))
    return v


def _parse_str(key: str, raw: str) -> str:
    return raw.strip()


DEFAULT_SEED = 20260819


def _key(parse, default, key=None):
    # one config key: its parser, its default (which a scenario's own
    # default in _SCENARIOS beats) and its name where it differs from the
    # field's
    return field(metadata={"parse": parse, "default": default, "key": key})


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved, typed configuration of one scenario run.

    Every field after name is one config key and declares, in its
    metadata, the key's parser and default; this is the only list of keys.
    A scenario's own defaults are in _SCENARIOS.
    """

    name: str
    out: str = _key(_parse_str, "out")
    seed: int = _key(_parse_seed, DEFAULT_SEED)
    sigma: float = _key(_parse_sigma, 0.01)
    h: float = _key(_parse_positive, 1e-3)
    duration: float = _key(_parse_positive, 20.0)
    alpha: float = _key(_parse_alpha, 0.5)
    t_filter: float = _key(_parse_positive, 0.1)
    y0: float = _key(_parse_float, -0.05)
    ydot0: float = _key(_parse_float, 0.0)
    deltas: tuple = _key(_parse_deltas, (1.0,), "delta")
    ipd_pole: float = _key(_parse_float, 0.5)
    pid_pole: float = _key(_parse_float, 0.66)
    ref: ReferenceTrajectory = _key(_parse_ref,
                                    ReferenceTrajectory.smooth_step(0.0, 1.0, 1.0, 6.0))
    estimator_variant: str = _key(_parse_estimator, ANALYSIS_FORM, "estimator")
    kp_axis: tuple = _key(_parse_axis, DEFAULT_AXIS)
    alpha_axis: tuple = _key(_parse_axis, DEFAULT_AXIS)
    t_value: float = _key(_parse_positive, 0.1)
    t_axis: tuple = _key(_parse_t_axis, default_t_axis())
    ip_kp: float = _key(_parse_float, 1.0)
    ip_alpha: float = _key(_parse_alpha, 1.0)
    ip_stable_kp: float = _key(_parse_float, -0.5)
    ip_stable_alpha: float = _key(_parse_alpha, 0.2)


# config key -> its ScenarioConfig field
_CONFIG_KEYS = {f.metadata["key"] or f.name: f for f in fields(ScenarioConfig) if f.metadata}


def _read_config_file(path: str) -> dict:
    kv = {}
    line_of = {}
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config file %r: %s" % (path, exc)) from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError("%s:%d: expected 'key = value', got '%s'"
                              % (path, lineno, stripped))
        key = key.strip()
        if key in line_of:
            raise ConfigError("%s:%d: config key '%s' is already set on line %d"
                              % (path, lineno, key, line_of[key]))
        line_of[key] = lineno
        kv[key] = value.strip()
    return kv


def parse_config(config_path, overrides: dict) -> ScenarioConfig:
    """Resolve a scenario configuration.

    Precedence: overrides (flags) beat the config file, which beats the
    built-in defaults. Unknown keys and out-of-range values are rejected
    with messages naming the key.
    """
    raw = {}
    if config_path:
        raw.update(_read_config_file(config_path))
    raw.update(overrides)

    name = raw.pop("scenario", None)
    if name is None:
        raise ConfigError("missing required key 'scenario' (use --scenario); "
                          "choices: %s" % ", ".join(SCENARIOS))
    name = name.strip()
    if name not in SCENARIOS:
        raise ConfigError("unknown scenario '%s'; choices: %s"
                          % (name, ", ".join(SCENARIOS)))

    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))

    defaults = _SCENARIOS[name][1]
    values = {f.name: defaults.get(f.name, f.metadata["default"])
              for f in _CONFIG_KEYS.values()}
    # parsed in raw order, so the first bad key reported is the first given
    values.update((_CONFIG_KEYS[key].name, _CONFIG_KEYS[key].metadata["parse"](key, value))
                  for key, value in raw.items())
    return ScenarioConfig(name=name, **values)


def _pole_gains(key: str, pole: float, multiplicity: int, gains_from_target):
    """Gains placing a pole of the given multiplicity at -pole.

    A pole whose target polynomial overflows, or loses its small
    coefficients to trimming, is reported as a bad value of the key.
    """
    try:
        return gains_from_target(expand_pole(pole, multiplicity))
    except PolynomialError as exc:
        raise ConfigError("config key '%s' = %s gives no usable pole target: %s"
                          % (key, _fmt(pole), exc)) from None


def tuned_ipd_controller(cfg: ScenarioConfig):
    """iPD controller and estimator from the configured double-pole target."""
    kp, kd = _pole_gains("ipd_pole", cfg.ipd_pole, 2, ipd_gains_from_target)
    spec = ControllerSpec.ipd(kp=kp, kd=kd, alpha=cfg.alpha)
    p = example_plant(1.0)
    coeffs = (p.a1, p.a0, p.b) if cfg.estimator_variant == ANALYSIS_FORM else None
    est = EstimatorConfig(nu=2, alpha=cfg.alpha, t_filter=cfg.t_filter,
                          variant=cfg.estimator_variant, plant_coeffs=coeffs)
    return spec, est


def tuned_pid_controller(cfg: ScenarioConfig) -> ControllerSpec:
    """Classic PID from the configured triple-pole target, tuned at delta=1."""
    kp, ki, kd = _pole_gains("pid_pole", cfg.pid_pole, 3,
                             lambda target: pid_gains_from_target(example_plant(1.0), target))
    return ControllerSpec.classic_pid(kp, ki, kd)


def _metrics_lines(tag: str, m: Metrics) -> list:
    return ["%s_rmse = %r" % (tag, m.rmse),
            "%s_iae = %r" % (tag, m.iae),
            "%s_tail_max_abs_error = %r" % (tag, m.tail_max_abs_error),
            "%s_diverged = %s" % (tag, m.diverged)]


def _delta_metrics_lines(entries: dict) -> list:
    """The <kind>_delta<tag>_* lines of each (kind, delta tag) entry, in key order."""
    return [line for key, m in entries.items()
            for line in _metrics_lines("%s_delta%s" % key, m)]


def _tuned_laws(cfg: ScenarioConfig, kinds=("ipd", "pid")) -> dict:
    """The tuned law of each of kinds ("ipd", "pid"), as kind ->
    (controller, estimator); only those kinds' poles are checked."""
    tuners = {"ipd": lambda: tuned_ipd_controller(cfg),
              "pid": lambda: (tuned_pid_controller(cfg), None)}
    return {kind: tuners[kind]() for kind in kinds}


def _measured_run(cfg: ScenarioConfig, noise: NoiseModel, law: tuple, delta: float,
                  path=None):
    """One closed loop of law (controller, estimator) at delta.

    With a path, writes the trace there and returns its Metrics only;
    without one, returns (Metrics, trace).
    """
    controller, estimator = law
    trace = run_closed_loop(example_plant(delta), controller, estimator, cfg.ref, noise,
                            h=cfg.h, duration=cfg.duration, y0=cfg.y0, ydot0=cfg.ydot0,
                            pid_filter_time=cfg.t_filter, meta={"scenario": cfg.name})
    metrics = compute_metrics(trace)
    if path is None:
        return metrics, trace
    trace.to_csv(path)
    return metrics


def _loop_jobs(cfg: ScenarioConfig, laws: dict) -> dict:
    """One job per law (tag -> (controller, estimator)) at each of
    cfg.deltas, all with one shared seed, keyed by (tag, delta tag),
    deltas outer and laws inner. Each job is _measured_run(..., path)."""
    # sim's run-length limits and noise draws, checked first so that the
    # message names the keys
    try:
        n = sample_count(cfg.h, cfg.duration)
    except ValueError as exc:
        raise ConfigError("config key 'duration' = %s and config key 'h' = %s: %s"
                          % (_fmt(cfg.duration), _fmt(cfg.h), exc)) from None
    noise = NoiseModel(cfg.sigma, cfg.seed)
    try:
        noise.sequence(n)
    except ValueError:
        raise ConfigError("config key 'sigma' = %s overflows a noise draw of seed %d"
                          % (_fmt(cfg.sigma), cfg.seed)) from None
    return {(tag, _fmt(delta)): functools.partial(_measured_run, cfg, noise, law, delta)
            for delta in cfg.deltas for tag, law in laws.items()}


def _trace_files(jobs: dict) -> dict:
    """trace_<controller>_<delta tag>.csv -> the job of its run, in key order."""
    return {"trace_%s_%s.csv" % key: job for key, job in jobs.items()}


def _scenario_tracking(cfg: ScenarioConfig, kind: str):
    jobs = _loop_jobs(cfg, _tuned_laws(cfg, (kind,)))
    return _trace_files(jobs), lambda results: (
        ["seed = %d" % cfg.seed] + _delta_metrics_lines(dict(zip(jobs, results))))


@dataclass
class CompareReport:
    """Per-(controller, delta) metrics and tail-error winners per delta."""

    deltas: tuple
    entries: dict
    winners: dict

    def to_lines(self) -> list:
        lines = _delta_metrics_lines(self.entries)
        for delta in self.deltas:
            key = _fmt(delta)
            lines.append("winner_delta%s = %s" % (key, self.winners[key]))
            ipd_tail = self.entries[("ipd", key)].tail_max_abs_error
            pid_tail = self.entries[("pid", key)].tail_max_abs_error
            if ipd_tail > 0.0:
                lines.append("tail_ratio_pid_over_ipd_delta%s = %r"
                             % (key, pid_tail / ipd_tail))
        return lines


def _compare_report(cfg: ScenarioConfig, entries: dict) -> CompareReport:
    """The report of the (kind, delta tag) -> Metrics entries. The winner
    per delta is the controller with the smaller settled-tail error; a
    diverged run always loses."""
    winners = {}
    for delta in cfg.deltas:
        key = _fmt(delta)
        mi = entries[("ipd", key)]
        mp = entries[("pid", key)]
        if mi.diverged != mp.diverged:
            winners[key] = "pid" if mi.diverged else "ipd"
        else:
            winners[key] = "ipd" if mi.tail_max_abs_error <= mp.tail_max_abs_error else "pid"
    return CompareReport(cfg.deltas, entries, winners)


def compare_controllers(cfg: ScenarioConfig):
    """Run iPD and classic PID across cfg.deltas with one shared seed.

    Returns (CompareReport, traces) where traces maps (kind, delta tag)
    to the simulated trace. The runs are the compare scenario's jobs,
    without paths, on every usable core (pool.run_jobs).
    """
    jobs = _loop_jobs(cfg, _tuned_laws(cfg))
    results = dict(zip(jobs, run_jobs(list(jobs.values()))))
    report = _compare_report(cfg, {key: m for key, (m, _) in results.items()})
    return report, {key: trace for key, (_, trace) in results.items()}


def _scenario_compare(cfg: ScenarioConfig):
    jobs = _loop_jobs(cfg, _tuned_laws(cfg))
    return _trace_files(jobs), lambda results: (
        ["seed = %d" % cfg.seed]
        + _compare_report(cfg, dict(zip(jobs, results))).to_lines())


def _scenario_ip_attempt(cfg: ScenarioConfig):
    """Simulate the tabulated default iP cell and a stable counterpart cell."""
    # the metrics keys carry no delta tag, so a second delta would collide
    if len(cfg.deltas) > 1:
        raise ConfigError("config key 'delta': scenario %s takes one value, got %d"
                          % (cfg.name, len(cfg.deltas)))
    laws = {}
    cell_lines = {}
    for tag, kp_key, alpha_key in (("ip", "ip_kp", "ip_alpha"),
                                   ("ip-stable", "ip_stable_kp", "ip_stable_alpha")):
        kp, alpha = getattr(cfg, kp_key), getattr(cfg, alpha_key)
        # each cell's quartic before any run, so that a cell without one fails fast
        try:
            max_re = quartic_max_real_root(kp, alpha, cfg.t_filter)
        except ValueError as exc:
            raise ConfigError("config keys '%s' = %s, '%s' = %s and 't_filter' = %s"
                              " give no usable quartic: %s"
                              % (kp_key, _fmt(kp), alpha_key, _fmt(alpha),
                                 _fmt(cfg.t_filter), exc)) from None
        laws[tag] = ip_loop_for_cell(kp, alpha, cfg.t_filter)
        tag_us = tag.replace("-", "_")
        cell_lines[tag] = ["%s_cell_kp = %r" % (tag_us, float(kp)),
                           "%s_cell_alpha = %r" % (tag_us, float(alpha)),
                           "%s_cell_max_root_real = %r" % (tag_us, max_re)]
    jobs = _loop_jobs(cfg, laws)

    def lines(results):
        out = ["seed = %d" % cfg.seed]
        for (tag, _), m in zip(jobs, results):
            out += cell_lines[tag] + _metrics_lines(tag.replace("-", "_"), m)
        return out
    return _trace_files(jobs), lines


def _scenario_stabmap(cfg: ScenarioConfig, aggregation: str):
    t_key, t_axis = (("t_value", (cfg.t_value,)) if aggregation == FIXED_T
                     else ("t_axis", cfg.t_axis))
    try:
        grid = sweep(GridSpec(cfg.kp_axis, cfg.alpha_axis, t_axis, aggregation, 0))
    except FilterConstantOverflow as exc:
        raise ConfigError("config key '%s': %s" % (t_key, exc.reason)) from None
    except CellWithoutVerdict as exc:
        raise ConfigError("kp_axis / alpha_axis / %s: %s" % (t_key, exc.reason)) from None
    lines = ["stable_fraction = %r" % grid.stable_fraction]
    lines.extend("%s_cells = %d" % item for item in grid.counts.items())
    return {"grid.csv": lambda path: export_grid(grid, path)}, lambda results: lines


# scenario name -> (runner, defaults). runner(cfg) checks the
# configuration and returns {file name: job(path)}, whose jobs write the
# files (a trace job runs its closed loop first and returns its Metrics),
# and lines(results), the metrics lines after the scenario line given the
# jobs' return values in file order. defaults holds the scenario's own
# values of some ScenarioConfig fields.
_SCENARIOS = {
    "ipd-nominal": (lambda cfg: _scenario_tracking(cfg, "ipd"), {}),
    "pid-nominal": (lambda cfg: _scenario_tracking(cfg, "pid"), {}),
    "ipd-delta": (lambda cfg: _scenario_tracking(cfg, "ipd"), {"deltas": (0.8, 0.5)}),
    "pid-delta": (lambda cfg: _scenario_tracking(cfg, "pid"), {"deltas": (0.8, 0.5)}),
    # regulation rather than tracking: the stability study starts at y0
    "ip-attempt": (_scenario_ip_attempt, {"ref": ReferenceTrajectory.constant(0.0)}),
    "stabmap-fixed-t": (lambda cfg: _scenario_stabmap(cfg, FIXED_T), {}),
    "stabmap-all-t": (lambda cfg: _scenario_stabmap(cfg, FOR_ALL_T), {}),
    "compare": (_scenario_compare, {"deltas": (1.0, 0.8, 0.5)}),
}

SCENARIOS = tuple(_SCENARIOS)

# the dedicated flags: keys settable without --set, which they beat
_FLAGS = {
    "scenario": "scenario name",
    "out": "output directory (default ./out)",
    "seed": "unsigned 64-bit noise seed",
}


def run_scenario(cfg: ScenarioConfig) -> list:
    """Execute one scenario; returns the list of files written.

    Every configuration check runs before <out>/<scenario>/ is created,
    so a rejected run leaves no directory behind. Each file is then one
    independent job, run on every usable core (pool.run_jobs): a trace
    file's job runs its closed loop, writes the trace and hands back only
    its Metrics, so this process holds at most the trace of the job it is
    running. metrics.txt is written last, from the jobs' return values,
    once every other file is complete.
    """
    files, lines = _SCENARIOS[cfg.name][0](cfg)
    out_dir = os.path.join(cfg.out, cfg.name)
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in files]
    try:
        results = run_jobs([functools.partial(job, path)
                            for job, path in zip(files.values(), paths)])
    except WorkerLost as exc:
        raise WorkerLost("a worker process died while writing the files of %s;"
                         " they may be incomplete" % out_dir) from exc
    metrics_path = os.path.join(out_dir, "metrics.txt")
    with open(metrics_path, "w", newline="\n") as fh:
        fh.write("\n".join(["scenario = %s" % cfg.name] + lines(results)) + "\n")
    return paths + [metrics_path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ultralocal",
        description="Run closed-loop control scenarios and stability sweeps.",
        epilog="scenarios: %s" % ", ".join(SCENARIOS))
    for key, help_text in _FLAGS.items():
        parser.add_argument("--" + key, help=help_text)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one config key (repeatable; beaten only "
                             "by the dedicated flags above)")
    args = parser.parse_args(argv)

    overrides = {}
    for item in args.sets:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            print("error: --set expects KEY=VALUE, got '%s'" % item, file=sys.stderr)
            return 2
        overrides[key.strip()] = value.strip()
    overrides.update((key, getattr(args, key)) for key in _FLAGS
                     if getattr(args, key) is not None)

    try:
        cfg = parse_config(args.config, overrides)
        written = run_scenario(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except WorkerLost as exc:
        # not a fault of the configuration
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for path in written:
        print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
