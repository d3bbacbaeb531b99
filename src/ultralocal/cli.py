"""Command-line scenario runner.

Bundles the package's controllers, estimators, simulator, and stability
sweeps into eight named scenarios producing trace CSVs, metric reports,
and stability-map exports under a chosen output directory. Configuration
comes from an optional key=value file overridden by command-line flags;
every run is fully determined by (scenario, config, seed).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from .control import (
    ANALYSIS_FORM,
    DELAYED_INPUT,
    ControllerSpec,
    EstimatorConfig,
)
from .poly import expand_pole, ipd_gains_from_target, pid_gains_from_target
from .sim import (
    Metrics,
    NoiseModel,
    ReferenceTrajectory,
    compute_metrics,
    example_plant,
    run_closed_loop,
)
from .stabmap import (
    FIXED_T,
    FOR_ALL_T,
    GridSpec,
    VERDICT_EXCLUDED,
    VERDICT_MARGINAL,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    default_t_axis,
    export_grid,
    ip_spec_for_cell,
    quartic_max_real_root,
    sweep,
)

SCENARIOS = (
    "ipd-nominal",
    "pid-nominal",
    "ipd-delta",
    "pid-delta",
    "ip-attempt",
    "stabmap-fixed-t",
    "stabmap-all-t",
    "compare",
)


class ConfigError(ValueError):
    """Bad or missing configuration; message names the offending key."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved, typed configuration of one scenario run."""

    name: str
    out: str
    seed: int
    sigma: float
    h: float
    duration: float
    alpha: float
    t_filter: float
    y0: float
    ydot0: float
    deltas: tuple
    ipd_pole: float
    pid_pole: float
    ref: ReferenceTrajectory
    estimator_variant: str
    kp_axis: tuple
    alpha_axis: tuple
    t_value: float
    t_axis: tuple
    ip_kp: float
    ip_alpha: float
    ip_stable_kp: float
    ip_stable_alpha: float


_DELTA_DEFAULTS = {
    "ipd-delta": (0.8, 0.5),
    "pid-delta": (0.8, 0.5),
    "compare": (1.0, 0.8, 0.5),
}

_TRACKING_REF = ("smooth-step", 0.0, 1.0, 1.0, 6.0)


def _default_ref(scenario: str) -> ReferenceTrajectory:
    # regulation framing for the stability-study scenario, tracking otherwise
    if scenario == "ip-attempt":
        return ReferenceTrajectory.constant(0.0)
    kind, a, b, t0, t1 = _TRACKING_REF
    return ReferenceTrajectory.smooth_step(a, b, t0, t1)


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
    try:
        v = int(raw, 0)
    except ValueError:
        raise ConfigError("config key '%s': expected an integer, got '%s'" % (key, raw)) from None
    if not 0 <= v < 2 ** 64:
        raise ConfigError("config key '%s' must be an unsigned 64-bit integer" % key)
    return v


def _parse_deltas(key: str, raw: str) -> tuple:
    out = []
    for part in raw.split(","):
        v = _parse_float(key, part.strip())
        if not 0.0 <= v <= 1.0:
            raise ConfigError("delta must be within [0, 1], got %s" % part.strip())
        out.append(v)
    if not out:
        raise ConfigError("config key '%s' needs at least one value" % key)
    return tuple(out)


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
    vals = tuple(_parse_positive(key, p.strip()) for p in raw.split(","))
    if not vals:
        raise ConfigError("config key '%s' needs at least one value" % key)
    return tuple(sorted(vals))


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
        if not t1 > t0:
            raise ConfigError("config key '%s': need t1 > t0" % key)
        return ReferenceTrajectory.smooth_step(a, b, t0, t1)
    raise ConfigError(
        "config key '%s': expected 'constant:<level>' or 'smooth-step:y0,y1,t0,t1'" % key)


def _parse_estimator(key: str, raw: str) -> str:
    v = raw.strip()
    if v not in (DELAYED_INPUT, ANALYSIS_FORM):
        raise ConfigError("config key '%s' must be '%s' or '%s'"
                          % (key, DELAYED_INPUT, ANALYSIS_FORM))
    return v


def _parse_str(key: str, raw: str) -> str:
    return raw.strip()


_PARSERS = {
    "out": _parse_str,
    "seed": _parse_seed,
    "sigma": _parse_sigma,
    "h": _parse_positive,
    "duration": _parse_positive,
    "alpha": _parse_alpha,
    "t_filter": _parse_positive,
    "y0": _parse_float,
    "ydot0": _parse_float,
    "delta": _parse_deltas,
    "ipd_pole": _parse_float,
    "pid_pole": _parse_float,
    "ref": _parse_ref,
    "estimator": _parse_estimator,
    "kp_axis": _parse_axis,
    "alpha_axis": _parse_axis,
    "t_value": _parse_positive,
    "t_axis": _parse_t_axis,
    "ip_kp": _parse_float,
    "ip_alpha": _parse_alpha,
    "ip_stable_kp": _parse_float,
    "ip_stable_alpha": _parse_alpha,
}

DEFAULT_SEED = 20260819


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

    unknown = sorted(set(raw) - set(_PARSERS))
    if unknown:
        raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))

    parsed = {key: _PARSERS[key](key, raw[key]) for key in raw}

    return ScenarioConfig(
        name=name,
        out=parsed.get("out", "out"),
        seed=parsed.get("seed", DEFAULT_SEED),
        sigma=parsed.get("sigma", 0.01),
        h=parsed.get("h", 1e-3),
        duration=parsed.get("duration", 20.0),
        alpha=parsed.get("alpha", 0.5),
        t_filter=parsed.get("t_filter", 0.1),
        y0=parsed.get("y0", -0.05),
        ydot0=parsed.get("ydot0", 0.0),
        deltas=parsed.get("delta", _DELTA_DEFAULTS.get(name, (1.0,))),
        ipd_pole=parsed.get("ipd_pole", 0.5),
        pid_pole=parsed.get("pid_pole", 0.66),
        ref=parsed.get("ref", _default_ref(name)),
        estimator_variant=parsed.get("estimator", ANALYSIS_FORM),
        kp_axis=parsed.get("kp_axis", (-5.0, 5.0, 201)),
        alpha_axis=parsed.get("alpha_axis", (-5.0, 5.0, 201)),
        t_value=parsed.get("t_value", 0.1),
        t_axis=parsed.get("t_axis", default_t_axis()),
        ip_kp=parsed.get("ip_kp", 1.0),
        ip_alpha=parsed.get("ip_alpha", 1.0),
        ip_stable_kp=parsed.get("ip_stable_kp", -0.5),
        ip_stable_alpha=parsed.get("ip_stable_alpha", 0.2),
    )


def _fmt(x: float) -> str:
    return "%g" % x


def _nominal_plant_coeffs():
    p = example_plant(1.0)
    return (p.a1, p.a0, p.b)


def tuned_ipd_controller(cfg: ScenarioConfig):
    """iPD controller and estimator from the configured double-pole target."""
    kp, kd = ipd_gains_from_target(expand_pole(cfg.ipd_pole, 2))
    spec = ControllerSpec.ipd(kp=kp, kd=kd, alpha=cfg.alpha)
    coeffs = _nominal_plant_coeffs() if cfg.estimator_variant == ANALYSIS_FORM else None
    est = EstimatorConfig(nu=2, alpha=cfg.alpha, t_filter=cfg.t_filter,
                          variant=cfg.estimator_variant, plant_coeffs=coeffs)
    return spec, est


def tuned_pid_controller(cfg: ScenarioConfig) -> ControllerSpec:
    """Classic PID from the configured triple-pole target, tuned at delta=1."""
    kp, ki, kd = pid_gains_from_target(example_plant(1.0), expand_pole(cfg.pid_pole, 3))
    return ControllerSpec.classic_pid(kp, ki, kd)


def _metrics_lines(tag: str, m: Metrics) -> list:
    return ["%s_rmse = %r" % (tag, m.rmse),
            "%s_iae = %r" % (tag, m.iae),
            "%s_tail_max_abs_error = %r" % (tag, m.tail_max_abs_error),
            "%s_diverged = %s" % (tag, m.diverged)]


def _run_one(cfg: ScenarioConfig, kind: str, delta: float):
    plant = example_plant(delta)
    if kind == "pid":
        controller = tuned_pid_controller(cfg)
        estimator = None
    else:
        controller, estimator = tuned_ipd_controller(cfg)
    noise = NoiseModel(cfg.sigma, cfg.seed)
    return run_closed_loop(plant, controller, estimator, cfg.ref, noise,
                           h=cfg.h, duration=cfg.duration, y0=cfg.y0,
                           ydot0=cfg.ydot0, pid_filter_time=cfg.t_filter,
                           meta={"scenario": cfg.name})


def _scenario_tracking(cfg: ScenarioConfig, out_dir: str, kind: str):
    paths = []
    lines = ["scenario = %s" % cfg.name, "seed = %d" % cfg.seed]
    for delta in cfg.deltas:
        trace = _run_one(cfg, kind, delta)
        name = "trace_%s_%s.csv" % (kind, _fmt(delta))
        path = os.path.join(out_dir, name)
        trace.to_csv(path)
        paths.append(path)
        lines.extend(_metrics_lines("%s_delta%s" % (kind, _fmt(delta)),
                                    compute_metrics(trace)))
    return paths, lines


@dataclass
class CompareReport:
    """Per-(controller, delta) metrics and tail-error winners per delta."""

    deltas: tuple
    entries: dict
    winners: dict

    def to_lines(self) -> list:
        lines = []
        for delta in self.deltas:
            key = _fmt(delta)
            for kind in ("ipd", "pid"):
                lines.extend(_metrics_lines("%s_delta%s" % (kind, key),
                                            self.entries[(kind, key)]))
        for delta in self.deltas:
            key = _fmt(delta)
            lines.append("winner_delta%s = %s" % (key, self.winners[key]))
            ipd_tail = self.entries[("ipd", key)].tail_max_abs_error
            pid_tail = self.entries[("pid", key)].tail_max_abs_error
            if ipd_tail > 0.0:
                lines.append("tail_ratio_pid_over_ipd_delta%s = %r"
                             % (key, pid_tail / ipd_tail))
        return lines


def compare_controllers(cfg: ScenarioConfig):
    """Run iPD and classic PID across cfg.deltas with one shared seed.

    Returns (CompareReport, traces) where traces maps (kind, delta tag)
    to the simulated trace. The winner per delta is the controller with
    the smaller settled-tail error; a diverged run always loses.
    """
    entries = {}
    traces = {}
    winners = {}
    for delta in cfg.deltas:
        key = _fmt(delta)
        for kind in ("ipd", "pid"):
            trace = _run_one(cfg, kind, delta)
            traces[(kind, key)] = trace
            entries[(kind, key)] = compute_metrics(trace)
        mi = entries[("ipd", key)]
        mp = entries[("pid", key)]
        if mi.diverged != mp.diverged:
            winners[key] = "pid" if mi.diverged else "ipd"
        else:
            winners[key] = "ipd" if mi.tail_max_abs_error <= mp.tail_max_abs_error else "pid"
    return CompareReport(cfg.deltas, entries, winners), traces


def _scenario_compare(cfg: ScenarioConfig, out_dir: str):
    report, traces = compare_controllers(cfg)
    paths = []
    for delta in cfg.deltas:
        key = _fmt(delta)
        for kind in ("ipd", "pid"):
            path = os.path.join(out_dir, "trace_%s_%s.csv" % (kind, key))
            traces[(kind, key)].to_csv(path)
            paths.append(path)
    lines = ["scenario = %s" % cfg.name, "seed = %d" % cfg.seed]
    lines.extend(report.to_lines())
    return paths, lines


def _scenario_ip_attempt(cfg: ScenarioConfig, out_dir: str):
    """Simulate the tabulated default iP cell and a stable counterpart cell."""
    plant = example_plant(cfg.deltas[0])
    est_coeffs = _nominal_plant_coeffs()
    noise = NoiseModel(cfg.sigma, cfg.seed)
    paths = []
    lines = ["scenario = %s" % cfg.name, "seed = %d" % cfg.seed]
    cells = (("ip", cfg.ip_kp, cfg.ip_alpha),
             ("ip-stable", cfg.ip_stable_kp, cfg.ip_stable_alpha))
    for tag, kp, alpha in cells:
        controller = ip_spec_for_cell(kp, alpha)
        est = EstimatorConfig(nu=1, alpha=alpha, t_filter=cfg.t_filter,
                              variant=ANALYSIS_FORM, plant_coeffs=est_coeffs)
        trace = run_closed_loop(plant, controller, est, cfg.ref, noise,
                                h=cfg.h, duration=cfg.duration, y0=cfg.y0,
                                ydot0=cfg.ydot0, meta={"scenario": cfg.name,
                                                       "cell": (kp, alpha)})
        path = os.path.join(out_dir, "trace_%s_%s.csv" % (tag, _fmt(cfg.deltas[0])))
        trace.to_csv(path)
        paths.append(path)
        tag_us = tag.replace("-", "_")
        lines.append("%s_cell_kp = %r" % (tag_us, float(kp)))
        lines.append("%s_cell_alpha = %r" % (tag_us, float(alpha)))
        lines.append("%s_cell_max_root_real = %r"
                     % (tag_us, quartic_max_real_root(kp, alpha, cfg.t_filter)))
        lines.extend(_metrics_lines(tag_us, compute_metrics(trace)))
    return paths, lines


def _scenario_stabmap(cfg: ScenarioConfig, out_dir: str, aggregation: str):
    if aggregation == FIXED_T:
        spec = GridSpec(cfg.kp_axis, cfg.alpha_axis, (cfg.t_value,), FIXED_T, 0)
    else:
        spec = GridSpec(cfg.kp_axis, cfg.alpha_axis, cfg.t_axis, FOR_ALL_T, 0)
    grid = sweep(spec)
    path = os.path.join(out_dir, "grid.csv")
    export_grid(grid, path)
    lines = ["scenario = %s" % cfg.name,
             "stable_fraction = %r" % grid.stable_fraction]
    lines.extend("%s_cells = %d" % (k, sum(row.count(k) for row in grid.verdicts))
                 for k in (VERDICT_STABLE, VERDICT_UNSTABLE, VERDICT_MARGINAL,
                           VERDICT_EXCLUDED))
    return [path], lines


def run_scenario(cfg: ScenarioConfig) -> list:
    """Execute one scenario; returns the list of files written."""
    out_dir = os.path.join(cfg.out, cfg.name)
    os.makedirs(out_dir, exist_ok=True)
    if cfg.name in ("ipd-nominal", "ipd-delta"):
        paths, lines = _scenario_tracking(cfg, out_dir, "ipd")
    elif cfg.name in ("pid-nominal", "pid-delta"):
        paths, lines = _scenario_tracking(cfg, out_dir, "pid")
    elif cfg.name == "ip-attempt":
        paths, lines = _scenario_ip_attempt(cfg, out_dir)
    elif cfg.name == "stabmap-fixed-t":
        paths, lines = _scenario_stabmap(cfg, out_dir, FIXED_T)
    elif cfg.name == "stabmap-all-t":
        paths, lines = _scenario_stabmap(cfg, out_dir, FOR_ALL_T)
    else:
        paths, lines = _scenario_compare(cfg, out_dir)
    metrics_path = os.path.join(out_dir, "metrics.txt")
    with open(metrics_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return paths + [metrics_path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ultralocal",
        description="Run closed-loop control scenarios and stability sweeps.",
        epilog="scenarios: %s" % ", ".join(SCENARIOS))
    parser.add_argument("--scenario", help="scenario name")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="output directory (default ./out)")
    parser.add_argument("--seed", help="unsigned 64-bit noise seed")
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
    if args.scenario is not None:
        overrides["scenario"] = args.scenario
    if args.out is not None:
        overrides["out"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed

    try:
        cfg = parse_config(args.config, overrides)
        written = run_scenario(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for path in written:
        print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
