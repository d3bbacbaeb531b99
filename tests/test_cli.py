"""Tests for scenario configuration, runners, and the command-line entry."""

import contextlib
import gc
import hashlib
import io
import math
import os
import re
import tempfile
import warnings
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forks import (another_thread_running, count_forks, forbid_processes, needs_fork,
                   no_child_left)
from ultralocal import cli, pool
from ultralocal.cli import (
    DEFAULT_SEED,
    SCENARIOS,
    CompareReport,
    ConfigError,
    ScenarioConfig,
    compare_controllers,
    main,
    parse_config,
    run_scenario,
    tuned_ipd_controller,
    tuned_pid_controller,
)
from ultralocal.control import ANALYSIS_FORM, DELAYED_INPUT, ESTIMATOR_VARIANTS
from ultralocal.sim import (
    CONSTANT,
    SMOOTH_STEP,
    TRACE_COLUMNS,
    Metrics,
    ReferenceTrajectory,
    SimulationTrace,
    load_trace_csv,
)
from ultralocal.stabmap import default_grid_spec

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _cfg(scenario, **overrides):
    kv = {"scenario": scenario}
    kv.update({k: str(v) for k, v in overrides.items()})
    return parse_config(None, kv)


def _read_metrics(path) -> dict:
    out = {}
    with open(path) as fh:
        lines = fh.readlines()
    for line in lines:
        key, sep, value = line.strip().partition(" = ")
        assert sep, "malformed metrics line %r" % line
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# parse_config


def test_defaults_ipd_nominal():
    cfg = _cfg("ipd-nominal")
    assert cfg.name == "ipd-nominal"
    assert cfg.out == "out"
    assert cfg.seed == DEFAULT_SEED
    assert cfg.sigma == 0.01
    assert cfg.h == 1e-3
    assert cfg.duration == 20.0
    assert cfg.alpha == 0.5
    assert cfg.t_filter == 0.1
    assert cfg.y0 == -0.05
    assert cfg.deltas == (1.0,)
    assert cfg.ipd_pole == 0.5
    assert cfg.pid_pole == 0.66
    assert cfg.estimator_variant == ANALYSIS_FORM
    assert cfg.ref.kind == SMOOTH_STEP
    assert (cfg.ref.y_start, cfg.ref.y_end) == (0.0, 1.0)
    assert (cfg.ref.t_start, cfg.ref.t_end) == (1.0, 6.0)


def test_default_deltas_per_scenario():
    assert _cfg("ipd-delta").deltas == (0.8, 0.5)
    assert _cfg("pid-delta").deltas == (0.8, 0.5)
    assert _cfg("compare").deltas == (1.0, 0.8, 0.5)
    assert _cfg("pid-nominal").deltas == (1.0,)


def test_default_ref_for_ip_attempt():
    cfg = _cfg("ip-attempt")
    assert cfg.ref.kind == CONSTANT
    assert cfg.ref.level == 0.0


def test_scenario_defaults_name_config_fields():
    # parse_config looks each default up by field name, so a misspelt
    # key in a scenario's defaults would be ignored without this check
    names = {f.name for f in fields(ScenarioConfig) if f.metadata}
    for name, (_, defaults) in cli._SCENARIOS.items():
        assert set(defaults) <= names, name


def test_default_axes_are_the_default_map_axes():
    cfg = _cfg("stabmap-fixed-t")
    spec = default_grid_spec()
    assert (cfg.kp_axis, cfg.alpha_axis) == (spec.kp_axis, spec.alpha_axis)


def test_missing_scenario_rejected():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(None, {})


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config(None, {"scenario": "warp-drive"})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="frobnicate"):
        _cfg("ipd-nominal", frobnicate=1)


def test_delta_bounds_message():
    with pytest.raises(ConfigError, match=r"delta must be within \[0, 1\], got 1.5"):
        _cfg("ipd-delta", delta="1.5")


def test_delta_list_parsing():
    assert _cfg("ipd-delta", delta="1,0.8,0.5").deltas == (1.0, 0.8, 0.5)
    with pytest.raises(ConfigError):
        _cfg("ipd-delta", delta="0.8,oops")


def test_seed_bounds():
    for raw, seed in (("12", 12), ("0x1F", 31), ("0b11", 3), ("1_000", 1000), ("00", 0),
                      ("007", 7), ("08", 8)):
        assert _cfg("ipd-nominal", seed=raw).seed == seed
    with pytest.raises(ConfigError, match="seed"):
        _cfg("ipd-nominal", seed="-1")
    with pytest.raises(ConfigError, match="seed"):
        _cfg("ipd-nominal", seed=str(2**64))
    with pytest.raises(ConfigError, match="seed"):
        _cfg("ipd-nominal", seed="1.5")


def test_sigma_must_be_nonnegative():
    assert _cfg("ipd-nominal", sigma="0").sigma == 0.0
    with pytest.raises(ConfigError, match="sigma"):
        _cfg("ipd-nominal", sigma="-0.01")


def test_ref_parsing():
    cfg = _cfg("ipd-nominal", ref="constant:0.3")
    assert cfg.ref.kind == CONSTANT and cfg.ref.level == 0.3
    cfg = _cfg("ipd-nominal", ref="smooth-step:0,2,1,4")
    assert cfg.ref.kind == SMOOTH_STEP
    assert (cfg.ref.y_end, cfg.ref.t_end) == (2.0, 4.0)
    with pytest.raises(ConfigError, match="ref"):
        _cfg("ipd-nominal", ref="wiggle:1")
    with pytest.raises(ConfigError, match="ref"):
        _cfg("ipd-nominal", ref="smooth-step:0,1")
    # ReferenceTrajectory owns the smooth step's rules; the key is named
    with pytest.raises(ConfigError, match="^config key 'ref': t_end must exceed t_start"):
        _cfg("ipd-nominal", ref="smooth-step:0,1,6,1")
    with pytest.raises(ConfigError, match="^config key 'ref': y_end - y_start must be finite"):
        _cfg("ipd-nominal", ref="smooth-step:-1e308,1e308,1,6")


def test_axis_parsing():
    cfg = _cfg("stabmap-fixed-t", kp_axis="-2,2,11")
    assert cfg.kp_axis == (-2.0, 2.0, 11)
    with pytest.raises(ConfigError, match="alpha_axis"):
        _cfg("stabmap-fixed-t", alpha_axis="1,2")


@pytest.mark.parametrize("key,raw", [
    ("y0", "inf"), ("y0", "nan"), ("t_value", "inf"), ("ipd_pole", "nan"),
    ("duration", "inf"), ("t_axis", "0.1,inf"), ("kp_axis", "-inf,5,11"),
    ("ref", "constant:nan"),
])
def test_non_finite_values_rejected_naming_the_key(key, raw):
    with pytest.raises(ConfigError, match="'%s' must be finite" % key):
        _cfg("ipd-nominal", **{key: raw})


def test_estimator_variant_parsing():
    assert _cfg("ipd-nominal", estimator="delayed-input").estimator_variant == DELAYED_INPUT
    for variant in ESTIMATOR_VARIANTS:
        assert _cfg("ipd-nominal", estimator=variant).estimator_variant == variant
    with pytest.raises(ConfigError, match="estimator") as err:
        _cfg("ipd-nominal", estimator="kalman")
    assert all("'%s'" % variant in str(err.value) for variant in ESTIMATOR_VARIANTS)


def test_config_file_and_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# tracking run with degraded actuator\n"
        "\n"
        "scenario = ipd-delta\n"
        "delta = 0.8\n"
        "sigma = 0.02\n")
    cfg = parse_config(str(path), {})
    assert cfg.name == "ipd-delta"
    assert cfg.deltas == (0.8,)
    assert cfg.sigma == 0.02
    # overrides (flags) beat the file
    cfg = parse_config(str(path), {"delta": "0.5"})
    assert cfg.deltas == (0.5,)
    assert cfg.sigma == 0.02


def test_config_file_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("scenario = ipd-nominal\njust-a-line\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        parse_config(str(path), {})


def test_config_file_missing(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "nope.cfg"), {})


# ---------------------------------------------------------------------------
# Tuned controllers


def test_tuned_controllers_from_poles():
    cfg = _cfg("ipd-nominal")
    ipd, est = tuned_ipd_controller(cfg)
    assert (ipd.kp, ipd.kd, ipd.alpha) == (0.25, 1.0, 0.5)
    assert est.nu == 2 and est.variant == ANALYSIS_FORM
    pid = tuned_pid_controller(cfg)
    assert math.isclose(pid.kp, 1.3068, rel_tol=1e-9)
    assert math.isclose(pid.ki, 0.287496, rel_tol=1e-9)
    assert math.isclose(pid.kd, 2.98, rel_tol=1e-9)


def test_tuned_ipd_delayed_variant():
    cfg = _cfg("ipd-nominal", estimator="delayed-input")
    _, est = tuned_ipd_controller(cfg)
    assert est.variant == DELAYED_INPUT
    assert est.plant_coeffs is None


# ---------------------------------------------------------------------------
# Scenario runners


def test_run_scenario_ipd_nominal(tmp_path):
    cfg = _cfg("ipd-nominal", out=tmp_path, duration=2)
    written = run_scenario(cfg)
    trace_path = os.path.join(str(tmp_path), "ipd-nominal", "trace_ipd_1.csv")
    metrics_path = os.path.join(str(tmp_path), "ipd-nominal", "metrics.txt")
    assert set(written) == {trace_path, metrics_path}
    data = load_trace_csv(trace_path)
    assert data["t"].shape[0] == 2001
    m = _read_metrics(metrics_path)
    assert m["scenario"] == "ipd-nominal"
    assert m["seed"] == str(DEFAULT_SEED)
    assert float(m["ipd_delta1_rmse"]) > 0.0
    assert m["ipd_delta1_diverged"] == "False"


def test_run_scenario_delta_writes_one_trace_per_delta(tmp_path):
    cfg = _cfg("ipd-delta", out=tmp_path, duration=2)
    written = run_scenario(cfg)
    base = os.path.join(str(tmp_path), "ipd-delta")
    assert os.path.join(base, "trace_ipd_0.8.csv") in written
    assert os.path.join(base, "trace_ipd_0.5.csv") in written
    m = _read_metrics(os.path.join(base, "metrics.txt"))
    assert "ipd_delta0.8_tail_max_abs_error" in m
    assert "ipd_delta0.5_tail_max_abs_error" in m


def test_run_scenario_byte_identical_reruns(tmp_path):
    a = _cfg("ipd-nominal", out=tmp_path / "a", duration=2)
    b = _cfg("ipd-nominal", out=tmp_path / "b", duration=2)
    run_scenario(a)
    run_scenario(b)
    for name in ("trace_ipd_1.csv", "metrics.txt"):
        pa = tmp_path / "a" / "ipd-nominal" / name
        pb = tmp_path / "b" / "ipd-nominal" / name
        assert pa.read_bytes() == pb.read_bytes()


def test_run_scenario_ip_attempt(tmp_path):
    cfg = _cfg("ip-attempt", out=tmp_path)
    written = run_scenario(cfg)
    base = os.path.join(str(tmp_path), "ip-attempt")
    assert os.path.join(base, "trace_ip_1.csv") in written
    assert os.path.join(base, "trace_ip-stable_1.csv") in written
    m = _read_metrics(os.path.join(base, "metrics.txt"))
    # the tabulated default cell is unstable and must blow up in simulation;
    # the chosen counterpart cell is stable and must stay bounded
    assert float(m["ip_cell_max_root_real"]) > 0.0
    assert m["ip_diverged"] == "True"
    assert float(m["ip_stable_cell_max_root_real"]) < 0.0
    assert m["ip_stable_diverged"] == "False"
    assert float(m["ip_stable_tail_max_abs_error"]) < 0.05
    diverged = load_trace_csv(os.path.join(base, "trace_ip_1.csv"))
    assert abs(diverged["y_true"][-1]) > 1e3


def test_main_rejects_ip_attempt_with_two_deltas(tmp_path, capsys):
    # ip-attempt's metrics keys carry no delta tag: one delta only
    rc = main(["--scenario", "ip-attempt", "--out", str(tmp_path), "--set", "delta=0.8,0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config key 'delta'" in err
    assert not any(files for _, _, files in os.walk(tmp_path))


def test_run_scenario_stabmap_fixed_t(tmp_path):
    cfg = _cfg("stabmap-fixed-t", out=tmp_path,
               kp_axis="-1,1,11", alpha_axis="-1,1,11")
    run_scenario(cfg)
    base = os.path.join(str(tmp_path), "stabmap-fixed-t")
    with open(os.path.join(base, "grid.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "kp,alpha,verdict"
    assert len(lines) == 1 + 121 + 1
    m = _read_metrics(os.path.join(base, "metrics.txt"))
    counts = sum(int(m["%s_cells" % k]) for k in
                 ("stable", "unstable", "marginal", "excluded"))
    assert counts == 121
    sf = float(m["stable_fraction"])
    assert 0.0 < sf < 1.0
    assert sf == int(m["stable_cells"]) / 121


def test_run_scenario_stabmap_all_t(tmp_path):
    cfg = _cfg("stabmap-all-t", out=tmp_path,
               kp_axis="-1,1,5", alpha_axis="-1,1,5", t_axis="0.1,0.5")
    run_scenario(cfg)
    base = os.path.join(str(tmp_path), "stabmap-all-t")
    with open(os.path.join(base, "grid.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "kp,alpha,t,verdict"
    assert all(",all," in line for line in lines[1:-1])


def test_main_maps_an_all_t_grid_whose_cells_all_have_verdicts(tmp_path):
    # T^2 kp overflows at the second T, which no cell's verdict reaches:
    # every cell is unstable at the first
    rc = main(["--scenario", "stabmap-all-t", "--out", str(tmp_path),
               "--set", "kp_axis=5e121,1e122,3", "--set", "alpha_axis=-1e193,-5e192,3",
               "--set", "t_axis=1e59,1e106"])
    assert rc == 0
    with open(os.path.join(str(tmp_path), "stabmap-all-t", "grid.csv")) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 11
    assert all(line.endswith(",all,unstable") for line in lines[1:-1])


def test_compare_report_and_winner_recomputable(tmp_path):
    cfg = _cfg("compare", out=tmp_path, duration=4)
    written = run_scenario(cfg)
    base = os.path.join(str(tmp_path), "compare")
    m = _read_metrics(os.path.join(base, "metrics.txt"))
    for key in ("1", "0.8", "0.5"):
        for kind in ("ipd", "pid"):
            assert os.path.join(base, "trace_%s_%s.csv" % (kind, key)) in written
        # the recorded winner must follow from the trace files alone
        tails = {}
        for kind in ("ipd", "pid"):
            data = load_trace_csv(os.path.join(base, "trace_%s_%s.csv" % (kind, key)))
            e = data["e"]
            start = min(int(math.floor(0.8 * e.shape[0])), e.shape[0] - 1)
            tails[kind] = float(np.max(np.abs(e[start:])))
        expected = "ipd" if tails["ipd"] <= tails["pid"] else "pid"
        assert m["winner_delta%s" % key] == expected
        ratio = float(m["tail_ratio_pid_over_ipd_delta%s" % key])
        assert math.isclose(ratio, tails["pid"] / tails["ipd"], rel_tol=1e-12)


def test_compare_controllers_entries():
    cfg = _cfg("compare", duration=2, delta="1,0.5")
    report, traces = compare_controllers(cfg)
    assert isinstance(report, CompareReport)
    assert set(report.entries) == {("ipd", "1"), ("pid", "1"),
                                   ("ipd", "0.5"), ("pid", "0.5")}
    assert set(report.winners) == {"1", "0.5"}
    assert set(traces) == set(report.entries)
    assert all(w in ("ipd", "pid") for w in report.winners.values())


@needs_fork
def test_compare_controllers_traces_cross_the_pool_intact(monkeypatch):
    # full-length runs: each trace is ~1.6 MB, the package's one path that
    # sends megabyte values back from a forked worker
    cfg = _cfg("compare", delta="0.8,0.5")
    monkeypatch.setattr(pool, "usable_cores", lambda: 1)
    expected_report, expected_traces = compare_controllers(cfg)
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    forks = count_forks(monkeypatch)
    report, traces = compare_controllers(cfg)
    assert len(forks) == 1
    assert report == expected_report
    assert traces.keys() == expected_traces.keys()
    for key, trace in traces.items():
        expected = expected_traces[key]
        for name in TRACE_COLUMNS:
            assert getattr(trace, name).tobytes() == getattr(expected, name).tobytes()
        assert trace.diverged == expected.diverged
        assert trace.meta == expected.meta


# ---------------------------------------------------------------------------
# main()


def test_main_runs_scenario(tmp_path, capsys):
    rc = main(["--scenario", "stabmap-fixed-t", "--out", str(tmp_path),
               "--set", "kp_axis=-1,1,5", "--set", "alpha_axis=-1,1,5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "wrote" in captured.out
    assert "grid.csv" in captured.out


def test_main_rejects_unknown_scenario(capsys):
    rc = main(["--scenario", "warp-drive"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")


def test_main_rejects_malformed_set(capsys):
    rc = main(["--scenario", "ipd-nominal", "--set", "noequals"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "KEY=VALUE" in captured.err


def test_main_requires_scenario(capsys):
    rc = main([])
    assert rc == 2
    assert "scenario" in capsys.readouterr().err


@pytest.mark.parametrize("scenario,item,names", [
    ("ipd-nominal", "y0=inf", ("y0",)),
    ("stabmap-fixed-t", "t_value=inf", ("t_value",)),
    ("stabmap-fixed-t", "kp_axis=-5,5,100000000", ("kp_axis", "cap")),
    ("stabmap-fixed-t", "kp_axis=-1e308,1e308,3", ("kp_axis", "overflows")),
    ("ipd-nominal", "duration=1e300", ("duration / h", "cap")),
    ("ipd-nominal", "h=1e-9", ("config key 'h' = 1e-09", "cap")),
    ("compare", "duration=1e-5", ("config key 'duration' = 1e-05", "ten steps")),
    # T^2 overflows in every cell: the T's key is named, not the gain axes
    ("stabmap-fixed-t", "t_value=1e300", ("config key 't_value': T = 1e+300 overflows the"
                                          " quartic's coefficients 2T - T^2 and T^2",)),
    ("stabmap-all-t", "t_axis=0.1,1e300", ("config key 't_axis': T = 1e+300 overflows",)),
    # the coefficients are finite, a Routh table entry is not: the map's own T key is named
    ("stabmap-fixed-t", "t_value=1e120", ("kp_axis / alpha_axis / t_value: the cell kp = -5.0,",
                                          "has no Routh verdict: Routh table row s^2 is not"
                                          " finite")),
    ("stabmap-all-t", "t_axis=0.1,1e120", ("kp_axis / alpha_axis / t_axis: the cell kp = ",
                                           "has no Routh verdict:")),
])
def test_main_rejects_unusable_values_naming_the_key(tmp_path, capsys, scenario, item, names):
    rc = main(["--scenario", scenario, "--out", str(tmp_path), "--set", item])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    for name in names:
        assert name in err
    assert not any(name.endswith(".csv") for _, _, files in os.walk(tmp_path)
                   for name in files)


def test_main_refuses_a_map_with_one_unclassifiable_row(tmp_path, capsys):
    # the kp = -1e-10 and 1e-10 cells' tables overflow at this T, the
    # kp = 0 cells' do not
    rc = main(["--scenario", "stabmap-fixed-t", "--out", str(tmp_path),
               "--set", "kp_axis=-1e-10,1e-10,3", "--set", "alpha_axis=-1e-9,1e-9,2",
               "--set", "t_value=1e103"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: kp_axis / alpha_axis / t_value: the cell kp = -1e-10, alpha = -1e-09 has no"
        " Routh verdict")
    assert os.listdir(tmp_path) == []


def test_main_dedicated_flags_beat_set(tmp_path):
    rc = main(["--scenario", "ipd-nominal", "--out", str(tmp_path),
               "--seed", "2", "--set", "seed=1", "--set", "duration=2"])
    assert rc == 0
    m = _read_metrics(os.path.join(str(tmp_path), "ipd-nominal", "metrics.txt"))
    assert m["seed"] == "2"


def test_main_help_lists_every_flag(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--scenario", "--config", "--out", "--seed", "--set"):
        assert flag in out


def test_scenarios_tuple_is_complete():
    assert SCENARIOS == ("ipd-nominal", "pid-nominal", "ipd-delta", "pid-delta",
                         "ip-attempt", "stabmap-fixed-t", "stabmap-all-t", "compare")
    for name in SCENARIOS:
        assert isinstance(ScenarioConfig, type)
        assert name == name.strip().lower()


def test_config_file_rejects_duplicate_keys(tmp_path, capsys, monkeypatch):
    path = tmp_path / "dup.cfg"
    path.write_text("scenario = ipd-nominal\nsigma = 0.01\n# later\nsigma = 0.5\n")
    with pytest.raises(ConfigError,
                       match=r"dup.cfg:4: config key 'sigma' is already set on line 2"):
        parse_config(str(path), {})
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
    assert "'sigma'" in capsys.readouterr().err
    # repeated --set overrides still resolve to the last one
    path.write_text("scenario = ipd-nominal\nsigma = 0.01\n")
    resolved = []
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: resolved.append(cfg) or [])
    assert main(["--config", str(path), "--set", "sigma=0.2", "--set", "sigma=0.03"]) == 0
    assert resolved[0].sigma == 0.03


@pytest.mark.parametrize("scenario,item,key", [
    ("ipd-nominal", "ipd_pole=1e160", "ipd_pole"),  # (s + r)^2 overflows
    ("ipd-nominal", "ipd_pole=1e100", "ipd_pole"),  # the target's s and 1 are trimmed
    ("compare", "ipd_pole=1e160", "ipd_pole"),
    ("pid-nominal", "pid_pole=1e120", "pid_pole"),
    ("pid-nominal", "pid_pole=1e100", "pid_pole"),
])
def test_main_rejects_unusable_pole_naming_the_key(tmp_path, capsys, scenario, item, key):
    rc = main(["--scenario", scenario, "--out", str(tmp_path), "--set", item])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: config key '%s' = " % key)
    tuned = tuned_ipd_controller if key == "ipd_pole" else tuned_pid_controller
    with pytest.raises(ConfigError, match="config key '%s'" % key):
        tuned(_cfg(scenario, **dict([item.split("=")])))


_REJECTED_RUNS = {
    "two-deltas": ["--scenario", "ip-attempt", "--set", "delta=0.8,0.5"],
    "overflowing-axes": ["--scenario", "stabmap-fixed-t", "--set", "kp_axis=1e300,2e300,2",
                         "--set", "alpha_axis=2e-9,1,2"],
    "pole": ["--scenario", "pid-nominal", "--set", "pid_pole=1e120"],
    "overflowing-ip-cell": ["--scenario", "ip-attempt", "--set", "ip_kp=1e300",
                            "--set", "ip_alpha=1e-300"],
    "overflowing-ip-stable-cell": ["--scenario", "ip-attempt", "--set", "ip_stable_kp=1e300",
                                   "--set", "ip_stable_alpha=1e-300"],
    "overflowing-t-filter": ["--scenario", "ip-attempt", "--set", "t_filter=1e300"],
    "overflowing-sigma": ["--scenario", "ipd-nominal", "--set", "sigma=1e308"],
    "overflowing-ref-rise": ["--scenario", "ipd-nominal", "--set",
                             "ref=smooth-step:-1e308,1e308,1,6", "--set", "duration=1"],
}


@pytest.mark.parametrize("argv", _REJECTED_RUNS.values(), ids=_REJECTED_RUNS.keys())
def test_rejected_run_creates_no_directory(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    # a directory that existed before the run stays, untouched
    existing = out / argv[1]
    existing.mkdir(parents=True)
    (existing / "keep.txt").write_text("kept")
    assert main(argv + ["--out", str(out)]) == 2
    assert [p.name for p in out.iterdir()] == [argv[1]]
    assert [p.name for p in existing.iterdir()] == ["keep.txt"]


def test_sigma_whose_noise_draws_overflow_is_rejected_before_any_output(tmp_path, capsys):
    # the draws are fixed by sigma, the seed and the sample count, so the
    # runner checks them before <out>/<scenario>/ exists, and numpy's
    # overflow warning never shows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--scenario", "ipd-nominal", "--out", str(tmp_path), "--seed", "7",
                   "--set", "sigma=1e308"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: config key 'sigma' = 1e+308 overflows a noise draw of seed 7\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# the _REJECTED_RUNS whose map cell has no quartic, and what the message names
_CELL_KEYS = {
    "overflowing-ip-cell": ("'ip_kp' = 1e+300", "'ip_alpha' = 1e-300", "'t_filter' = 0.1"),
    "overflowing-ip-stable-cell": ("'ip_stable_kp' = 1e+300", "'ip_stable_alpha' = 1e-300",
                                   "'t_filter' = 0.1"),
    "overflowing-t-filter": ("'ip_kp' = 1,", "'ip_alpha' = 1 ", "'t_filter' = 1e+300"),
}


@pytest.mark.parametrize("run,names", _CELL_KEYS.items(), ids=_CELL_KEYS.keys())
def test_ip_attempt_rejects_a_cell_without_a_quartic_naming_its_keys(tmp_path, capsys,
                                                                     monkeypatch, run, names):
    # rejected before any loop runs
    monkeypatch.setattr(cli, "run_closed_loop", lambda *a, **k: pytest.fail("loop ran"))
    assert main(_REJECTED_RUNS[run] + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config keys ")
    for name in names:
        assert name in err


# sha256 of every file the eight scenarios write at their defaults,
# recorded before the estimator was collapsed into one recursion
SCENARIO_DIGESTS = {
    "compare/metrics.txt": "1fe93991202212514ad3407168aca470a49f9c58d3bf7692f2f7d6ff8fb3637a",
    "compare/trace_ipd_0.5.csv": "5f34d9b86ff3bca8ae07ae6eb5e2ed6a13fe0b906c30c5dbefccbf850703e594",
    "compare/trace_ipd_0.8.csv": "251c3b23e825a8e962643f19a2abb88a0b88ce14ad3e2e7b343a6c84f1429b5b",
    "compare/trace_ipd_1.csv": "3cda6f05e93ecd2457a99c71d51b64c635d3391cea5a09d1206c86fc041326eb",
    "compare/trace_pid_0.5.csv": "4f823462415ffc9fd8c604ce903f4451b99d8aee4979eca514b163c2eb911c50",
    "compare/trace_pid_0.8.csv": "adfd43114c7116ea14e54fec607439a4274e763ac5b8e66895c65e84d5b0cd90",
    "compare/trace_pid_1.csv": "b717b65d7f699003487e585fb3b6f8e030010dc3bee6337dc20b27e4845f7619",
    "ip-attempt/metrics.txt": "e59856996cbb7c558482eb7ecd8c73e4a0fbeac9c5c76ae87e6ecf81e7e6f9f0",
    "ip-attempt/trace_ip-stable_1.csv": "18623ef715b9dd5ea9cf45fb394a4e2f0d58f6be400f5d495682cf6e03f0472e",
    "ip-attempt/trace_ip_1.csv": "595fab05fb1c58a864cbb086f73d1aba7d93235e46d86d95387871b9f76c8ebf",
    "ipd-delta/metrics.txt": "7de9b8f6a734f29beb0f679189b452e625195fccb5325a35623a2bb334fbd477",
    "ipd-delta/trace_ipd_0.5.csv": "5f34d9b86ff3bca8ae07ae6eb5e2ed6a13fe0b906c30c5dbefccbf850703e594",
    "ipd-delta/trace_ipd_0.8.csv": "251c3b23e825a8e962643f19a2abb88a0b88ce14ad3e2e7b343a6c84f1429b5b",
    "ipd-nominal/metrics.txt": "d12e031c634f1f41553411bd01139e81d267a4fe103fb4a007e839ba94b84b1c",
    "ipd-nominal/trace_ipd_1.csv": "3cda6f05e93ecd2457a99c71d51b64c635d3391cea5a09d1206c86fc041326eb",
    "pid-delta/metrics.txt": "fc350066b9e934cfcac4b98fcda2bb79f2ed2c9d27a457d299d67d653df80c2b",
    "pid-delta/trace_pid_0.5.csv": "4f823462415ffc9fd8c604ce903f4451b99d8aee4979eca514b163c2eb911c50",
    "pid-delta/trace_pid_0.8.csv": "adfd43114c7116ea14e54fec607439a4274e763ac5b8e66895c65e84d5b0cd90",
    "pid-nominal/metrics.txt": "01a9bbc24d63972163b485c5ee27f5a5223ff5d517a19fcb11e12b14ad7aac6f",
    "pid-nominal/trace_pid_1.csv": "b717b65d7f699003487e585fb3b6f8e030010dc3bee6337dc20b27e4845f7619",
    "stabmap-all-t/grid.csv": "ffd8a1d5cc493b86455c73c0a2a73e8a2482aaa7d91966c37b8ec6ad74bc15d9",
    "stabmap-all-t/metrics.txt": "e80f7cc5cea28b63cbad53cf7db99f7c06a1f4819b28b034ea607723bd43a0d5",
    "stabmap-fixed-t/grid.csv": "a59f9f5ebe0a5bb1cdd2d2f3cab42e26dcc7ca9198238321df09866734519b99",
    "stabmap-fixed-t/metrics.txt": "7b0b999146ee073d9f8dbd179b980dc18e1d6b6595ffc03e006bf530a8349201",
}


def test_scenario_outputs_at_defaults_are_pinned(tmp_path):
    for name in SCENARIOS:
        assert main(["--scenario", name, "--out", str(tmp_path)]) == 0
    written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.rglob("*") if p.is_file()}
    assert written == SCENARIO_DIGESTS


def test_main_names_both_axes_when_coefficients_overflow(tmp_path, capsys):
    rc = main(["--scenario", "stabmap-fixed-t", "--out", str(tmp_path),
               "--set", "kp_axis=1e300,2e300,2", "--set", "alpha_axis=2e-9,1,2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "kp_axis" in err and "alpha_axis" in err and "no Routh verdict" in err
    assert not os.path.exists(os.path.join(str(tmp_path), "stabmap-fixed-t", "grid.csv"))


@pytest.mark.parametrize("scenario,delta,first,second", [
    ("ipd-delta", "0.8,0.8000001", "0.8", "0.8000001"),
    ("pid-delta", "0.5,0.8,0.5", "0.5", "0.5"),
    ("compare", "0.5,0.5000001", "0.5", "0.5000001"),
])
def test_main_rejects_deltas_whose_output_tags_collide(tmp_path, capsys, scenario, delta,
                                                       first, second):
    # two deltas printing alike with %g would write one trace file twice
    rc = main(["--scenario", scenario, "--out", str(tmp_path), "--set", "delta=" + delta])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config key 'delta': values %s and %s" % (first, second) in err
    assert not os.path.exists(os.path.join(str(tmp_path), scenario))


# ---------------------------------------------------------------------------
# Writing a scenario's files across cores

# short runs: the writers are the same at any length, and 5,001 rows still
# span two of to_csv's row blocks
_SHORT = ["--set", "duration=5"]


def _run_and_hash(capsys, out, argv):
    """main's exit code, its wrote lines (out replaced by <out>) and the
    sha256 of every file under out."""
    rc = main(argv + ["--out", str(out)])
    wrote = capsys.readouterr().out.replace(str(out), "<out>").splitlines()
    digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
    return rc, wrote, digests


@pytest.mark.parametrize("scenario,item", [
    ("ipd-nominal", "pid_pole=1e120"),
    ("ipd-delta", "pid_pole=1e120"),
    ("pid-nominal", "ipd_pole=1e160"),
    ("pid-delta", "ipd_pole=1e160"),
])
def test_tracking_scenario_ignores_the_other_laws_pole(tmp_path, capsys, scenario, item):
    argv = ["--scenario", scenario] + _SHORT
    expected = _run_and_hash(capsys, tmp_path / "default", argv)
    assert expected[0] == 0
    assert _run_and_hash(capsys, tmp_path / "other", argv + ["--set", item]) == expected


@needs_fork
@pytest.mark.parametrize("seed", ["0", "41"])
@pytest.mark.parametrize("scenario", ["ipd-delta", "pid-delta", "compare", "ip-attempt"])
def test_scenario_files_do_not_depend_on_the_core_count(tmp_path, capsys, monkeypatch,
                                                        scenario, seed):
    argv = ["--scenario", scenario, "--seed", seed] + _SHORT
    monkeypatch.setattr(pool, "usable_cores", lambda: 1)
    one_core = _run_and_hash(capsys, tmp_path / "one", argv)
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    forks = count_forks(monkeypatch)
    two_cores = _run_and_hash(capsys, tmp_path / "two", argv)
    assert len(forks) == 1
    assert no_child_left()
    assert two_cores == one_core
    assert one_core[0] == 0 and len(one_core[2]) == len(one_core[1]) >= 3


@needs_fork
@pytest.mark.parametrize("scenario", ["ipd-nominal", "ipd-delta"])
def test_full_length_traces_fork_once_whatever_the_scenario(tmp_path, capsys, monkeypatch,
                                                            scenario):
    # 20,001-row traces: ipd-nominal's one trace file is written in two
    # parts, one by a forked child; ipd-delta's two runs are split across
    # the processes instead, and each writes its trace whole
    argv = ["--scenario", scenario]
    monkeypatch.setattr(pool, "usable_cores", lambda: 1)
    one_core = _run_and_hash(capsys, tmp_path / "one", argv)
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    forks = count_forks(monkeypatch)
    two_cores = _run_and_hash(capsys, tmp_path / "two", argv)
    assert len(forks) == 1
    assert no_child_left()
    assert two_cores == one_core and one_core[0] == 0


@pytest.mark.parametrize("argv", [
    # 2,001 rows: a trace shorter than two sim._CSV_BLOCK_ROWS blocks is one part
    ["--scenario", "ipd-nominal", "--set", "duration=2"],
    ["--scenario", "stabmap-fixed-t", "--set", "kp_axis=-1,1,5"],
], ids=["ipd-nominal", "stabmap-fixed-t"])
def test_one_file_scenario_starts_no_process(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    forbid_processes(monkeypatch)
    rc, wrote, digests = _run_and_hash(capsys, tmp_path, argv)
    assert rc == 0
    assert len(wrote) == len(digests) == 2


def test_scenario_files_are_written_here_while_other_threads_run(tmp_path, capsys,
                                                                 monkeypatch):
    argv = ["--scenario", "compare"] + _SHORT
    expected = _run_and_hash(capsys, tmp_path / "expected", argv)
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    forbid_processes(monkeypatch)
    with another_thread_running():
        written = _run_and_hash(capsys, tmp_path / "threads", argv)
    assert written == expected


@needs_fork
def test_write_error_in_a_worker_is_reported_as_with_one_core(tmp_path, capsys,
                                                              monkeypatch):
    # the third of compare's six files, in the forked child's share
    blocked = tmp_path / "compare" / "trace_ipd_0.8.csv"
    blocked.mkdir(parents=True)
    argv = ["--scenario", "compare", "--out", str(tmp_path)] + _SHORT
    monkeypatch.setattr(pool, "usable_cores", lambda: 1)
    assert main(argv) == 2
    one_core = capsys.readouterr()
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    forks = count_forks(monkeypatch)
    assert main(argv) == 2
    two_cores = capsys.readouterr()
    assert len(forks) == 1
    assert no_child_left()
    assert two_cores.err == one_core.err
    assert two_cores.err.startswith("error: ") and str(blocked) in two_cores.err
    assert two_cores.out == ""
    assert not (tmp_path / "compare" / "metrics.txt").exists()


@needs_fork
def test_worker_that_dies_mid_write_exits_1_naming_the_directory(tmp_path, capsys,
                                                                 monkeypatch):
    test_pid = os.getpid()
    real_to_csv = SimulationTrace.to_csv
    written_here = []

    def dying_to_csv(trace, path):
        # dies only in the forked child, so an in-process write cannot end
        # pytest. Of ipd-delta's two trace files, the child writes the
        # first and this process the second.
        if os.getpid() != test_pid:
            os._exit(3)
        written_here.append(os.path.basename(path))
        real_to_csv(trace, path)
    monkeypatch.setattr(SimulationTrace, "to_csv", dying_to_csv)
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    forks = count_forks(monkeypatch)
    rc = main(["--scenario", "ipd-delta", "--out", str(tmp_path)] + _SHORT)
    captured = capsys.readouterr()
    assert rc == 1
    assert len(forks) == 1
    assert len(written_here) == 1
    assert no_child_left()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and os.path.join(str(tmp_path), "ipd-delta") in line
    assert not (tmp_path / "ipd-delta" / "metrics.txt").exists()


@needs_fork
def test_compare_loops_run_in_both_processes(tmp_path, capsys, monkeypatch):
    # each closed loop appends its process id to a file; the child runs
    # the first three of the six loops, this process the last three
    test_pid = os.getpid()
    pids = tmp_path / "pids"
    real_run = cli.run_closed_loop

    def recording_run(*args, **kwargs):
        with open(pids, "a") as fh:
            fh.write("%d\n" % os.getpid())
        return real_run(*args, **kwargs)
    monkeypatch.setattr(cli, "run_closed_loop", recording_run)
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    forks = count_forks(monkeypatch)
    assert main(["--scenario", "compare", "--out", str(tmp_path / "out")] + _SHORT) == 0
    assert len(forks) == 1
    assert no_child_left()
    ran = pids.read_text().split()
    assert len(ran) == 6
    assert len(set(ran)) == 2 and ran.count(str(test_pid)) == 3


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("scenario,runs", [("compare", 6), ("ip-attempt", 2)])
def test_run_jobs_hands_the_caller_only_metrics(tmp_path, monkeypatch, cores, scenario,
                                                runs):
    # a trace file's job writes its trace and returns its Metrics alone
    returned = []
    real_run_jobs = cli.run_jobs

    def recording_run_jobs(jobs):
        returned.extend(real_run_jobs(jobs))
        return returned
    monkeypatch.setattr(cli, "run_jobs", recording_run_jobs)
    monkeypatch.setattr(pool, "usable_cores", lambda: cores)
    assert main(["--scenario", scenario, "--out", str(tmp_path)] + _SHORT) == 0
    assert len(returned) == runs
    assert all(type(r) is Metrics for r in returned)


def test_run_scenario_holds_no_trace_once_a_job_returns(tmp_path, monkeypatch):
    # every trace the loops make, this process running them all, is freed
    # by the time its job has returned
    traces = []
    real_run = cli.run_closed_loop

    def tracked_run(*args, **kwargs):
        trace = real_run(*args, **kwargs)
        traces.append(weakref.ref(trace))
        return trace

    def checked(job):
        def run():
            result = job()
            gc.collect()
            assert traces and all(ref() is None for ref in traces)
            return result
        return run
    real_run_jobs = cli.run_jobs
    monkeypatch.setattr(cli, "run_closed_loop", tracked_run)
    monkeypatch.setattr(cli, "run_jobs", lambda jobs: real_run_jobs(list(map(checked, jobs))))
    monkeypatch.setattr(pool, "usable_cores", lambda: 1)
    run_scenario(_cfg("compare", out=tmp_path, duration=2))
    assert len(traces) == 6


# ---------------------------------------------------------------------------
# The key table: every config key is one ScenarioConfig field


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_nonzero = _finite.filter(lambda v: v != 0.0)
_unit = st.floats(0.0, 1.0)
_bounded = st.floats(-1e6, 1e6)


def _as_float(values):
    return values.map(lambda v: (repr(v), v))


@st.composite
def _axes(draw):
    lo = draw(_bounded)
    hi = lo + draw(st.floats(1e-3, 1e6))
    count = draw(st.integers(2, 10 ** 6))
    return "%r,%r,%d" % (lo, hi, count), (lo, hi, count)


@st.composite
def _refs(draw):
    if draw(st.booleans()):
        level = draw(_finite)
        return "constant:%r" % level, ReferenceTrajectory.constant(level)
    a, b, t0 = draw(_bounded), draw(_bounded), draw(_bounded)
    t1 = t0 + draw(st.floats(1e-3, 1e6))
    return ("smooth-step:%r,%r,%r,%r" % (a, b, t0, t1),
            ReferenceTrajectory.smooth_step(a, b, t0, t1))


def _lists(values, **kwargs):
    return st.lists(values, min_size=1, max_size=6, **kwargs).map(
        lambda vs: (",".join(map(repr, vs)), vs))


# config key -> strategy of (raw value, the typed value it resolves to)
IN_RANGE = {
    "out": st.text("abcXYZ019/._- ").map(lambda s: (s, s.strip())),
    "seed": st.integers(0, 2 ** 64 - 1).map(lambda v: (str(v), v)),
    "sigma": _as_float(st.floats(min_value=0.0, allow_infinity=False)),
    "h": _as_float(_positive),
    "duration": _as_float(_positive),
    "alpha": _as_float(_nonzero),
    "t_filter": _as_float(_positive),
    "y0": _as_float(_finite),
    "ydot0": _as_float(_finite),
    "delta": _lists(_unit, unique_by=lambda v: "%g" % v).map(lambda rv: (rv[0], tuple(rv[1]))),
    "ipd_pole": _as_float(_finite),
    "pid_pole": _as_float(_finite),
    "ref": _refs(),
    "estimator": st.sampled_from((DELAYED_INPUT, ANALYSIS_FORM)).map(lambda v: (v, v)),
    "kp_axis": _axes(),
    "alpha_axis": _axes(),
    "t_value": _as_float(_positive),
    "t_axis": _lists(_positive).map(lambda rv: (rv[0], tuple(sorted(rv[1])))),
    "ip_kp": _as_float(_finite),
    "ip_alpha": _as_float(_nonzero),
    "ip_stable_kp": _as_float(_finite),
    "ip_stable_alpha": _as_float(_nonzero),
}

# numeric config key -> raw values with one number replaced by "{}"
NUMERIC = {
    "seed": ["{}"], "sigma": ["{}"], "h": ["{}"], "duration": ["{}"],
    "alpha": ["{}"], "t_filter": ["{}"], "y0": ["{}"], "ydot0": ["{}"],
    "delta": ["{}", "0.5,{}"], "ipd_pole": ["{}"], "pid_pole": ["{}"],
    "ref": ["constant:{}", "smooth-step:0,1,{},6", "smooth-step:0,1,1,{}"],
    "kp_axis": ["{},5,11", "-5,{},11"], "alpha_axis": ["{},5,11", "-5,{},11"],
    "t_value": ["{}"], "t_axis": ["{}", "0.1,{}"], "ip_kp": ["{}"], "ip_alpha": ["{}"],
    "ip_stable_kp": ["{}"], "ip_stable_alpha": ["{}"],
}

# no digits, "i" or "n" in the alphabet, so float() and int() reject every draw
_NOT_A_NUMBER = (st.sampled_from(("nan", "inf", "-inf", "+Infinity", "NaN"))
                 | st.text("abcxyz_-+.e", min_size=1))


# config key -> ScenarioConfig field name, read from the fields themselves
KEYS = {f.metadata["key"] or f.name: f.name for f in fields(ScenarioConfig) if f.metadata}


def test_key_strategies_cover_the_key_table():
    assert len(KEYS) == 22
    assert set(IN_RANGE) == set(KEYS)
    assert set(NUMERIC) == set(KEYS) - {"out", "estimator"}


@pytest.mark.parametrize("key", sorted(IN_RANGE))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_key_resolves_an_in_range_value(key, data):
    raw, expected = data.draw(IN_RANGE[key])
    cfg = parse_config(None, {"scenario": "ipd-nominal", key: raw})
    value = getattr(cfg, KEYS[key])
    assert value == expected
    assert type(value) is type(expected)


@pytest.mark.parametrize("key", sorted(NUMERIC))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_non_numbers_rejected_naming_the_key(key, data):
    template = data.draw(st.sampled_from(NUMERIC[key]))
    raw = template.format(data.draw(_NOT_A_NUMBER))
    with pytest.raises(ConfigError, match="config key '%s'" % key):
        parse_config(None, {"scenario": "ipd-nominal", key: raw})


@settings(max_examples=50, deadline=None)
@given(key=st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True).filter(
    lambda k: k not in KEYS and k != "scenario"))
def test_unknown_set_key_exits_2_naming_it(key):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["--scenario", "ipd-nominal", "--set", "%s=1" % key])
    assert rc == 2
    assert "unknown config key(s): %s" % key in err.getvalue()


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(sorted(KEYS)), comments=st.integers(0, 3), blanks=st.integers(0, 3))
def test_repeated_config_file_key_names_both_lines(key, comments, blanks):
    lines = (["scenario = ipd-nominal"] + ["# note"] * comments + ["%s = 1" % key]
             + [""] * blanks + ["%s = 2" % key])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dup.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(
                "%s:%d: config key '%s' is already set on line %d"
                % (path, len(lines), key, comments + 2))):
            parse_config(path, {})


def test_readme_config_keys_table_matches_the_key_table():
    # the README's table is the one list of keys kept outside the code
    with open(README) as fh:
        text = fh.read()
    section = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    named = [key for row in rows for key in re.findall(r"`([a-z0-9_]+)`", row.split("|")[1])]
    assert sorted(named) == sorted(KEYS)


def test_first_bad_key_given_is_the_one_reported():
    for first, second in (("sigma", "h"), ("h", "sigma")):
        with pytest.raises(ConfigError, match="'%s'" % first):
            parse_config(None, {"scenario": "ipd-nominal", first: "-1", second: "-1"})
