"""Tests for the plant model, references, noise, closed loop, and metrics."""

import errno
import math
import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forks import count_forks, needs_fork, no_child_left
from loop_oracle import _rk4, to_csv_reference
from ultralocal import sim
from ultralocal.control import (
    ANALYSIS_FORM,
    ConfigMismatch,
    ControllerSpec,
    EstimatorConfig,
)
from ultralocal.sim import (
    BLOWUP_THRESHOLD,
    TRACE_COLUMNS,
    EmptyTrace,
    MAX_SAMPLES,
    LtiPlant,
    Metrics,
    NoiseModel,
    ReferenceTrajectory,
    SimulationTrace,
    compute_metrics,
    example_plant,
    load_trace_csv,
    run_closed_loop,
)
from ultralocal.pool import WorkerLost

H = 1e-3
EXAMPLE_COEFFS = (-1.0, 0.0, 1.0)


def _estimator(nu=2, alpha=0.5):
    return EstimatorConfig(nu=nu, alpha=alpha, t_filter=0.1,
                           variant=ANALYSIS_FORM, plant_coeffs=EXAMPLE_COEFFS)


def _tracking_ref():
    return ReferenceTrajectory.smooth_step(0.0, 1.0, 1.0, 6.0)


def _nominal_run(sigma=0.0, seed=1, duration=20.0, delta=1.0):
    return run_closed_loop(
        example_plant(delta), ControllerSpec.ipd(0.25, 1.0, alpha=0.5),
        _estimator(), _tracking_ref(), NoiseModel(sigma, seed),
        h=H, duration=duration, y0=-0.05)


# ---------------------------------------------------------------------------
# Plant


def test_plant_validation():
    with pytest.raises(ValueError, match=r"delta must be within \[0, 1\]"):
        LtiPlant(a1=-1.0, a0=0.0, b=1.0, delta=1.5)
    with pytest.raises(ValueError):
        LtiPlant(a1=float("inf"), a0=0.0, b=1.0)


def test_example_plant_coefficients():
    p = example_plant(0.8)
    assert (p.a1, p.a0, p.b, p.delta) == (-1.0, 0.0, 1.0, 0.8)


def _rk4_steps(plant, y, v, u, h, n):
    for _ in range(n):
        y, v = _rk4(plant.a1, plant.a0, plant.b * plant.delta, y, v, u, h)
    return y, v


def test_plant_step_equilibrium():
    assert _rk4_steps(example_plant(), 0.0, 0.0, 0.0, H, 1) == (0.0, 0.0)


def test_plant_free_response_is_exponential():
    # ydd = yd with yd(0)=1 gives yd(t) = e^t
    y, v = _rk4_steps(example_plant(), 0.0, 1.0, 0.0, H, 1000)
    assert math.isclose(v, math.e, rel_tol=1e-10)
    assert math.isclose(y, math.e - 1.0, rel_tol=1e-10)


def test_plant_forced_response_with_degradation():
    # ydd - yd = 0.5 from rest: y(t) = 0.5*(e^t - 1 - t)
    y, v = _rk4_steps(example_plant(0.5), 0.0, 0.0, 1.0, H, 1000)
    assert math.isclose(y, 0.5 * (math.e - 2.0), rel_tol=1e-9)
    assert math.isclose(v, 0.5 * (math.e - 1.0), rel_tol=1e-9)


def test_plant_step_fourth_order_convergence():
    # global error at t=1 must shrink ~16x per halving of h
    y0, v0, u = 0.2, -0.3, 1.0
    exact_y = y0 + (v0 + 1.0) * (math.e - 1.0) - 1.0
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        y, _ = _rk4_steps(example_plant(), y0, v0, u, h, round(1.0 / h))
        errors.append(abs(y - exact_y))
    slope = math.log2(errors[0] / errors[2]) / 2.0
    assert 3.5 < slope < 4.5


# ---------------------------------------------------------------------------
# Noise


def test_noise_validation():
    with pytest.raises(ValueError):
        NoiseModel(-0.1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.0, "7", None])
def test_noise_rejects_a_seed_outside_the_unsigned_64_bit_range(seed):
    with pytest.raises(ValueError, match="^seed must be an integer in "):
        NoiseModel(0.1, seed=seed)


def test_noise_takes_every_unsigned_64_bit_seed():
    for seed in (0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int64(3)):
        assert NoiseModel(0.1, seed=seed).sequence(3).shape == (3,)


def test_noise_zero_sigma_is_exact_zeros():
    seq = NoiseModel(0.0, 42).sequence(100)
    assert np.all(seq == 0.0)


def test_noise_reproducible():
    a = NoiseModel(0.01, 7).sequence(1000)
    b = NoiseModel(0.01, 7).sequence(1000)
    assert np.array_equal(a, b)
    c = NoiseModel(0.01, 8).sequence(1000)
    assert not np.array_equal(a, c)


def test_noise_draws_that_overflow_raise_naming_sigma():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^sigma = 1e\+308 overflows a noise draw of seed 3$"):
            NoiseModel(1e308, 3).sequence(1000)
        assert np.isfinite(NoiseModel(1e300, 3).sequence(1000)).all()


def test_noise_statistics():
    n = 200_000
    sigma = 0.01
    seq = NoiseModel(sigma, 123).sequence(n)
    assert abs(float(np.mean(seq))) <= 3.0 * sigma / math.sqrt(n)
    assert abs(float(np.std(seq)) / sigma - 1.0) <= 0.02


# ---------------------------------------------------------------------------
# Reference trajectories


def _ref_at(ref, *times):
    """(pos, vel, acc) lists at the given times, from eval_array."""
    return tuple(col.tolist() for col in ref.eval_array(np.array(times)))


def test_reference_constant():
    ref = ReferenceTrajectory.constant(0.7)
    assert _ref_at(ref, 0.0, 123.0) == ([0.7, 0.7], [0.0, 0.0], [0.0, 0.0])


def test_reference_smooth_step_endpoints_and_midpoint():
    ref = ReferenceTrajectory.smooth_step(0.0, 1.0, 1.0, 6.0)
    assert _ref_at(ref, 0.0, 1.0, 6.0, 20.0) == ([0.0, 0.0, 1.0, 1.0], [0.0] * 4, [0.0] * 4)
    (pos,), (vel,), (acc,) = _ref_at(ref, 3.5)
    assert math.isclose(pos, 0.5, abs_tol=1e-15)
    assert math.isclose(vel, 0.375, abs_tol=1e-15)
    assert abs(acc) < 1e-15


def test_reference_smooth_step_rejects_bad_span():
    with pytest.raises(ValueError):
        ReferenceTrajectory.smooth_step(0.0, 1.0, 2.0, 2.0)


@pytest.mark.parametrize("args,kwargs,field", [
    (("constnat",), {"level": 1.0}, "kind"),
    ((sim.CONSTANT,), {"level": math.nan}, "level"),
    ((sim.CONSTANT,), {"level": math.inf}, "level"),
    ((sim.SMOOTH_STEP,), {"y_start": -math.inf, "y_end": 1.0}, "y_start"),
    ((sim.SMOOTH_STEP,), {"y_end": math.nan}, "y_end"),
    ((sim.SMOOTH_STEP,), {"t_start": math.nan}, "t_start"),
    ((sim.SMOOTH_STEP,), {"t_end": math.inf}, "t_end"),
    ((sim.SMOOTH_STEP,), {"t_start": 3.0, "t_end": 2.0}, "t_end must exceed t_start"),
])
def test_reference_rejects_a_bad_field_naming_it(args, kwargs, field):
    with pytest.raises(ValueError, match="^%s" % field):
        ReferenceTrajectory(*args, **kwargs)


def test_reference_derivatives_consistent():
    # velocity and acceleration columns must match finite differences of
    # the position column to second order
    ref = ReferenceTrajectory.smooth_step(-0.5, 2.0, 1.0, 6.0)
    fd = 1e-4
    t = np.linspace(1.2, 5.8, 40)
    y0, v0, a0 = ref.eval_array(t)
    yp = ref.eval_array(t + fd)[0]
    ym = ref.eval_array(t - fd)[0]
    assert np.all(np.abs((yp - ym) / (2.0 * fd) - v0) < 1e-6)
    assert np.all(np.abs((yp - 2.0 * y0 + ym) / (fd * fd) - a0) < 1e-5)


# ---------------------------------------------------------------------------
# Closed loop


def test_loop_validation_errors():
    plant = example_plant()
    ipd = ControllerSpec.ipd(0.25, 1.0, alpha=0.5)
    ref = _tracking_ref()
    noise = NoiseModel(0.0)
    with pytest.raises(ValueError):
        run_closed_loop(plant, ipd, _estimator(), ref, noise, h=0.0)
    with pytest.raises(ValueError):
        run_closed_loop(plant, ipd, _estimator(), ref, noise, h=1e-3, duration=5e-3)
    with pytest.raises(ValueError, match="cap"):
        run_closed_loop(plant, ipd, _estimator(), ref, noise, h=1e-3,
                        duration=1e-3 * (MAX_SAMPLES + 1))
    for name, bad in (("y0", float("nan")), ("ydot0", float("inf"))):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            run_closed_loop(plant, ipd, _estimator(), ref, noise, **{name: bad})
    with pytest.raises(ConfigMismatch):
        run_closed_loop(plant, ipd, None, ref, noise)
    with pytest.raises(ConfigMismatch):
        run_closed_loop(plant, ipd, _estimator(nu=1), ref, noise)
    with pytest.raises(ConfigMismatch):
        run_closed_loop(plant, ipd, _estimator(alpha=1.0), ref, noise)
    with pytest.raises(ConfigMismatch):
        run_closed_loop(plant, ControllerSpec.ip(0.5, alpha=0.2), None, ref,
                        noise, use_oracle_estimator=True)
    with pytest.raises(ConfigMismatch):
        run_closed_loop(example_plant(0.0), ipd, None, ref, noise,
                        use_oracle_estimator=True)


def test_loop_sample_count_and_grid():
    trace = _nominal_run(duration=2.0)
    assert len(trace) == 2001
    assert trace.t[0] == 0.0
    assert math.isclose(trace.t[-1], 2.0, abs_tol=1e-12)
    # a nan duration covers no steps, whatever h is
    for h in (1e-3, 1e-9):
        with pytest.raises(ValueError, match="duration must cover at least ten steps"):
            sim.sample_count(h, math.nan)


def test_loop_error_column_definition():
    trace = _nominal_run(sigma=0.01, seed=3, duration=2.0)
    assert np.array_equal(trace.e, trace.y_ref - trace.y_measured)


def test_loop_zero_noise_measures_truth():
    trace = _nominal_run(sigma=0.0, duration=2.0)
    assert np.array_equal(trace.y_measured, trace.y_true)


def test_loop_true_lumped_term_second_order():
    # nu=2: f_true = ydd - alpha*u; at delta=1 on this plant that equals
    # (1 - alpha)*ydd + alpha*yd
    trace = _nominal_run(sigma=0.0)
    alpha = 0.5
    direct = trace.yddot_true - alpha * trace.u
    assert np.max(np.abs(trace.f_true - direct)) <= 1e-10
    identity = (1.0 - alpha) * trace.yddot_true + alpha * trace.ydot_true
    assert np.max(np.abs(trace.f_true - identity)) <= 1e-10


def test_loop_true_lumped_term_first_order():
    # nu=1: f_true = yd - alpha*u = -alpha*ydd + (1 + alpha)*yd at delta=1
    alpha = 0.2
    est = EstimatorConfig(nu=1, alpha=alpha, t_filter=0.1,
                          variant=ANALYSIS_FORM, plant_coeffs=EXAMPLE_COEFFS)
    trace = run_closed_loop(
        example_plant(1.0), ControllerSpec.ip(0.5, alpha=alpha), est,
        ReferenceTrajectory.constant(0.0), NoiseModel(0.0),
        h=H, duration=20.0, y0=-0.05)
    assert not trace.diverged
    direct = trace.ydot_true - alpha * trace.u
    assert np.max(np.abs(trace.f_true - direct)) <= 1e-10
    identity = -alpha * trace.yddot_true + (1.0 + alpha) * trace.ydot_true
    assert np.max(np.abs(trace.f_true - identity)) <= 1e-10


def test_loop_oracle_estimate_is_exact():
    trace = run_closed_loop(
        example_plant(1.0), ControllerSpec.ipd(0.25, 1.0, alpha=0.5), None,
        ReferenceTrajectory.constant(0.0), NoiseModel(0.0),
        h=H, duration=20.0, y0=-0.05, use_oracle_estimator=True)
    assert np.array_equal(trace.f_hat, trace.f_true)
    assert not trace.diverged
    assert np.max(np.abs(trace.e)) <= 0.05 + 1e-12


def test_loop_divergence_truncates_and_flags():
    # proportional-only intelligent loop at a gain pair inside the unstable
    # region; the trace must stop at the first |y| > threshold sample
    est = EstimatorConfig(nu=1, alpha=1.0, t_filter=0.1,
                          variant=ANALYSIS_FORM, plant_coeffs=EXAMPLE_COEFFS)
    trace = run_closed_loop(
        example_plant(1.0), ControllerSpec.ip(-1.0, alpha=1.0), est,
        ReferenceTrajectory.constant(0.0), NoiseModel(0.0),
        h=H, duration=20.0, y0=-0.05)
    assert trace.diverged
    assert len(trace) < 20001
    assert abs(trace.y_true[-1]) > BLOWUP_THRESHOLD
    assert np.all(np.abs(trace.y_true[:-1]) <= BLOWUP_THRESHOLD)
    assert compute_metrics(trace).diverged


def test_loop_classic_pid_runs():
    trace = run_closed_loop(
        example_plant(1.0), ControllerSpec.classic_pid(1.3068, 0.287496, 2.98),
        None, _tracking_ref(), NoiseModel(0.0), h=H, duration=20.0, y0=-0.05)
    assert not trace.diverged
    assert np.all(trace.f_hat == 0.0)
    assert np.all(trace.f_true == 0.0)
    m = compute_metrics(trace)
    assert m.tail_max_abs_error < 0.05


def test_loop_deterministic():
    a = _nominal_run(sigma=0.01, seed=11, duration=5.0)
    b = _nominal_run(sigma=0.01, seed=11, duration=5.0)
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_trace_csv_round_trip(tmp_path):
    trace = _nominal_run(sigma=0.01, seed=13, duration=2.0)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with open(path) as fh:
        assert fh.readline().rstrip("\n") == ",".join(TRACE_COLUMNS)
    data = load_trace_csv(path)
    assert set(data) == set(TRACE_COLUMNS)
    for name in TRACE_COLUMNS:
        assert np.array_equal(data[name], getattr(trace, name))


def _float_trace(values):
    """A trace whose eight CSV columns all hold the given float64 values."""
    return SimulationTrace(*([values] * 8), ydot_true=values, yddot_true=values,
                           h=1.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_trace_csv_round_trips_float_bits(tmp_path_factory, patterns):
    # repr writes the shortest string that reads back to the same double;
    # a NaN's sign and payload are not written, so NaN only stays NaN
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    path = tmp_path_factory.mktemp("bits") / "trace.csv"
    _float_trace(values).to_csv(path)
    data = load_trace_csv(path)
    nan = np.isnan(values)
    for name in TRACE_COLUMNS:
        assert np.array_equal(np.isnan(data[name]), nan)
        assert data[name][~nan].tobytes() == values[~nan].tobytes()


def test_load_trace_csv_header_only_gives_empty_columns(tmp_path):
    path = tmp_path / "trace.csv"
    _float_trace(np.empty(0)).to_csv(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = load_trace_csv(path)
    assert list(data) == list(TRACE_COLUMNS)
    for column in data.values():
        assert column.shape == (0,)
        assert column.dtype == np.float64


def test_load_trace_csv_one_row_crlf_and_special_values(tmp_path):
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.write("-0.0,inf,nan,-inf,1e-320,0.1,1.7976931348623157e+308,2\r\n")
    data = load_trace_csv(path)
    assert list(data) == list(TRACE_COLUMNS)
    row = [data[name] for name in TRACE_COLUMNS]
    assert all(column.shape == (1,) for column in row)
    expected = [-0.0, math.inf, math.nan, -math.inf, 1e-320, 0.1,
                1.7976931348623157e+308, 2.0]
    for got, want in zip(row, expected):
        if math.isnan(want):
            assert math.isnan(got[0])
        else:
            assert got.tobytes() == np.float64(want).tobytes()


def test_load_trace_csv_rejects_a_ragged_row(tmp_path):
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.write(",".join(["1.0"] * 8) + "\n")
        fh.write(",".join(["1.0"] * 7) + "\n")
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "%s: line 3 has 7 fields, the rows above it 8" % path)):
        load_trace_csv(path)


@pytest.mark.parametrize("row,field", [("3,abc", "abc"), ("3,1_0", "1_0"), ("3,", "")],
                         ids=["word", "underscore", "empty"])
def test_load_trace_csv_names_a_field_that_is_not_a_number(tmp_path, row, field):
    # the empty line 3 is no row, but still a line of the file
    path = tmp_path / "trace.csv"
    path.write_text("t,u\n1,2\n\n" + row + "\n")
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "%s: line 4: %r is not a number" % (path, field))):
        load_trace_csv(path)


@pytest.mark.parametrize("names,fields", [(2, 3), (4, 3)],
                         ids=["header-narrower", "header-wider"])
def test_load_trace_csv_rejects_header_and_row_widths_that_differ(tmp_path, names, fields):
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS[:names]) + "\n")
        for _ in range(2):
            fh.write(",".join(["1.0"] * fields) + "\n")
    with pytest.raises(ValueError, match="%d columns but the rows have %d fields"
                       % (names, fields)):
        load_trace_csv(path)


@pytest.mark.parametrize("content", ["", "\n", "\r\n"], ids=["empty", "lf", "crlf"])
def test_load_trace_csv_rejects_a_file_without_a_header(tmp_path, content):
    path = tmp_path / "trace.csv"
    path.write_bytes(content.encode())
    with pytest.raises(ValueError, match=re.escape("%s: no header line" % path)):
        load_trace_csv(path)


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(st.text("a1,\r", max_size=5).map(lambda s: s + "\n"), max_size=12),
       tail=st.text("a1,\r", max_size=3), data=st.data())
def test_lines_of_a_byte_range_are_its_lines_split_at_lf(tmp_path_factory, lines, tail, data):
    # a range runs from a line start to a line start or the end of the file
    lines += [tail] if tail else []
    path = tmp_path_factory.mktemp("lines") / "trace.csv"
    path.write_bytes("".join(lines).encode())
    starts = [sum(map(len, lines[:k])) for k in range(len(lines) + 1)]
    i = data.draw(st.integers(0, len(lines)))
    j = data.draw(st.integers(i, len(lines)))
    assert list(sim._lines(path, starts[i], starts[j])) == lines[i:j]


def test_lines_of_a_byte_range_longer_than_one_read(tmp_path):
    # 4,096 16-byte lines fill one 64 KiB read exactly
    lines = ["%015d\n" % k for k in range(3 * 4096 + 3)]
    path = tmp_path / "trace.csv"
    path.write_text("".join(lines))
    assert list(sim._lines(path, 16, 16 * 8193)) == lines[1:8193]
    assert list(sim._lines(path, 0, 16 * len(lines))) == lines


def test_load_trace_csv_rejects_bare_cr_line_ends(tmp_path):
    # lines are split at LF alone, so a bare-CR file is one long header
    path = tmp_path / "trace.csv"
    path.write_bytes(b"t,u\r1.0,2.0\r3.0,4.0\r")
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "%s: line 1 holds a bare CR; only LF and CRLF line ends are read" % path)):
        load_trace_csv(path)


def test_load_trace_csv_names_a_header_that_is_not_utf8(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"t,\xffu\n1.0,2.0\n")
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "%s: line 1 is not UTF-8 text" % path)):
        load_trace_csv(path)


@pytest.mark.parametrize("header,repeated", [
    ("t,t", "'t'"),
    ("t,u,y,u,t,e", "'t', 'u'"),
], ids=["t-t", "two-repeated"])
def test_load_trace_csv_rejects_a_repeated_column_name(tmp_path, header, repeated):
    path = tmp_path / "trace.csv"
    width = header.count(",") + 1
    path.write_text(header + "\n" + ",".join(["1.0"] * width) + "\n")
    with pytest.raises(ValueError, match=re.escape("%s: the header repeats column %s"
                                                   % (path, repeated))):
        load_trace_csv(path)


# ---------------------------------------------------------------------------
# Trace CSV across cores: one file's rows cut into parts, one pool job each

# 20,001 rows, four blocks: one part per core up to four cores, cut
# unevenly (10,000 and 10,001 rows at two cores)
def _full_run():
    return _nominal_run(sigma=0.01, seed=13)


def _diverged_run():
    # a positive-feedback iPD: truncated at sample 14,937
    trace = run_closed_loop(
        example_plant(1.0), ControllerSpec.ipd(-0.5, 0.0, alpha=0.5), _estimator(),
        ReferenceTrajectory.constant(0.0), NoiseModel(0.01, 3), h=H, duration=20.0,
        y0=-0.05)
    assert trace.diverged and len(trace) == 14938
    return trace


def _bits_trace(n):
    return _float_trace(np.random.default_rng(n).integers(
        0, 2 ** 64, n, dtype=np.uint64).view(np.float64))


_WRITTEN = {
    "one-row": lambda: _float_trace(np.array([-0.0])),
    "under-two-blocks": lambda: _bits_trace(2 * sim._CSV_BLOCK_ROWS - 1),
    # two parts of a block and five rows each: a part's last write is
    # smaller than a file buffer
    "two-blocks-and-ten-rows": lambda: _bits_trace(2 * sim._CSV_BLOCK_ROWS + 10),
    "diverged": _diverged_run,
    "20001-rows": _full_run,
}


@pytest.fixture(scope="module", params=list(_WRITTEN))
def written(request):
    return _WRITTEN[request.param]()


@pytest.fixture
def spills(monkeypatch):
    """The spill files the writer makes from now on."""
    made = []
    real = tempfile.TemporaryFile

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    return made


@needs_fork
@pytest.mark.parametrize("n_cores", [1, 2, 3, 4])
def test_to_csv_bytes_do_not_depend_on_the_core_count(tmp_path, monkeypatch, cores, spills,
                                                      written, n_cores):
    reference = tmp_path / "reference.csv"
    to_csv_reference(written, reference)
    path = tmp_path / "trace.csv"
    cores(n_cores)
    forks = count_forks(monkeypatch)
    written.to_csv(path)
    parts = max(1, min(n_cores, len(written) // sim._CSV_BLOCK_ROWS))
    assert path.read_bytes() == reference.read_bytes()
    assert len(forks) == len(spills) == parts - 1
    assert all(spill.closed for spill in spills)
    assert sorted(os.listdir(tmp_path)) == ["reference.csv", "trace.csv"]
    assert no_child_left()


@pytest.mark.parametrize("rows", [20_001, 100_001])
def test_to_csv_holds_one_block_of_text_whatever_the_length(tmp_path, cores, rows):
    # 17-digit values in every column; 4,096-row blocks peaked at 2.7 MB
    trace = _bits_trace(rows)
    cores(1)
    tracemalloc.start()
    try:
        trace.to_csv(tmp_path / "trace.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# One row of four special values each, the zero's sign, NaN, the
# infinities, subnormals and the extremes, rotating, beside four random
# doubles: every part boundary falls between two such rows.
_SPECIAL = ["-0.0", "nan", "inf", "-inf", "5e-324", "1e-320", "2.2250738585072014e-308",
            "1.7976931348623157e+308", "-1.7976931348623157e+308", "0.1", "-2"]


def _special_csv(path, rows, widths=None):
    """Write a CRLF trace CSV of rows rows; return its columns as float()
    reads them. widths maps a line of the file (1 is the header) to the
    fields it is given instead of eight, and then nothing is returned."""
    values = np.random.default_rng(rows).integers(
        0, 2 ** 64, (rows, 4), dtype=np.uint64).view(np.float64)
    lines = [",".join(TRACE_COLUMNS)]
    for i, row in enumerate(values.tolist()):
        special = [_SPECIAL[(i + k) % len(_SPECIAL)] for k in range(4)]
        lines.append(",".join(special + list(map(repr, row))))
    for line, fields in (widths or {}).items():
        lines[line - 1] = ",".join((lines[line - 1].split(",") + ["1.0"])[:fields])
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    if widths:
        return None
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).T


@needs_fork
@pytest.mark.parametrize("n_cores", [1, 2, 3, 4])
def test_load_trace_csv_bits_do_not_depend_on_the_core_count(tmp_path, monkeypatch, cores,
                                                             n_cores):
    path = tmp_path / "trace.csv"
    expected = _special_csv(path, 24000)
    cores(n_cores)
    forks = count_forks(monkeypatch)
    data = load_trace_csv(path)
    assert path.stat().st_size > 4 * sim._READ_PART_BYTES
    assert len(forks) == n_cores - 1
    assert list(data) == list(TRACE_COLUMNS)
    for name, column in zip(TRACE_COLUMNS, expected):
        assert data[name].tobytes() == column.tobytes()
    assert no_child_left()


@needs_fork
@pytest.mark.parametrize("n_cores", [1, 2, 3])
@pytest.mark.parametrize("fields", [7, 9])
def test_load_trace_csv_names_a_ragged_row_by_its_line_in_the_file(tmp_path, cores, n_cores,
                                                                    fields):
    # the ragged row sits in the last part
    path = tmp_path / "trace.csv"
    _special_csv(path, 24000, {23990: fields})
    cores(n_cores)
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "%s: line 23990 has %d fields, the rows above it 8" % (path, fields))):
        load_trace_csv(path)
    assert no_child_left()


@needs_fork
@pytest.mark.parametrize("n_cores", [1, 2, 3])
def test_load_trace_csv_names_a_field_that_is_not_a_number_in_the_last_part(tmp_path, cores,
                                                                           n_cores):
    path = tmp_path / "trace.csv"
    _special_csv(path, 24000)
    lines = path.read_bytes().split(b"\r\n")
    lines[23989] = lines[23989].rsplit(b",", 1)[0] + b",0x10"  # line 23990
    path.write_bytes(b"\r\n".join(lines))
    cores(n_cores)
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "%s: line 23990: '0x10' is not a number" % path)):
        load_trace_csv(path)
    assert no_child_left()


def test_load_trace_csv_names_a_bare_cr_in_a_body_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"t,u\n1,2\r3,4\n")
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "%s: line 2 holds a bare CR; only LF and CRLF line ends are read" % path)):
        load_trace_csv(path)


@needs_fork
@pytest.mark.parametrize("n_cores", [1, 2])
@pytest.mark.parametrize("line", [3, 23990], ids=["first-part", "last-part"])
def test_load_trace_csv_names_a_bare_cr_line_end_by_its_line(tmp_path, cores, n_cores, line):
    # lines `line` and `line` + 1 joined by a bare CR are one line with
    # sixteen fields, one of them holding the CR
    path = tmp_path / "trace.csv"
    _special_csv(path, 24000)
    lines = path.read_bytes().split(b"\r\n")
    lines[line - 1:line + 1] = [lines[line - 1] + b"\r" + lines[line]]
    path.write_bytes(b"\r\n".join(lines))
    cores(n_cores)
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "%s: line %d holds a bare CR; only LF and CRLF line ends are read" % (path, line))):
        load_trace_csv(path)
    assert no_child_left()


@needs_fork
@pytest.mark.parametrize("n_cores", [1, 2])
def test_load_trace_csv_names_a_line_that_is_not_utf8_in_the_last_part(tmp_path, cores,
                                                                       n_cores):
    path = tmp_path / "trace.csv"
    _special_csv(path, 24000)
    lines = path.read_bytes().split(b"\r\n")
    lines[23989] = lines[23989].rsplit(b",", 1)[0] + b",\xff"  # line 23990
    path.write_bytes(b"\r\n".join(lines))
    cores(n_cores)
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "%s: line 23990 is not UTF-8 text" % path)):
        load_trace_csv(path)
    assert no_child_left()


@needs_fork
@pytest.mark.parametrize("n_cores", [1, 2])
def test_load_trace_csv_names_the_first_row_of_a_narrower_part(tmp_path, cores, n_cores):
    # every row of the second half has seven fields, its eighth blanked
    # out to spaces, which keeps the byte offsets: at two cores that half
    # is a part of its own, narrower than the first, though no part is
    # ragged
    path = tmp_path / "trace.csv"
    _special_csv(path, 24000)
    text = path.read_bytes()
    body = text.index(b"\n") + 1
    cut = text.index(b"\n", body + (len(text) - body) // 2 - 1) + 1
    line = text.count(b"\n", 0, cut) + 1
    tail = [row[:row.rindex(b",")].ljust(len(row)) if row else row
            for row in text[cut:].split(b"\r\n")]
    path.write_bytes(text[:cut] + b"\r\n".join(tail))
    assert path.stat().st_size == len(text)
    cores(n_cores)
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "%s: line %d has 7 fields, the rows above it 8" % (path, line))):
        load_trace_csv(path)


@needs_fork
def test_a_child_that_dies_writing_its_part_raises_worker_lost(tmp_path, monkeypatch, cores,
                                                               spills):
    # the child dies writing the first part; this process writes the second
    test_pid = os.getpid()
    real_write_rows = SimulationTrace._write_rows

    def dying(trace, out, start, stop):
        if os.getpid() != test_pid:
            os._exit(3)
        real_write_rows(trace, out, start, stop)
    monkeypatch.setattr(SimulationTrace, "_write_rows", dying)
    cores(2)
    with pytest.raises(WorkerLost, match="ended with status 3"):
        _full_run().to_csv(tmp_path / "trace.csv")
    assert no_child_left()
    assert len(spills) == 1 and spills[0].closed
    assert os.listdir(tmp_path) == ["trace.csv"]


@needs_fork
@pytest.mark.parametrize("n_cores", [2, 3])
def test_an_os_error_in_a_part_reaches_the_caller(tmp_path, monkeypatch, cores, spills,
                                                  n_cores):
    # every part after the first fails, whichever process writes or
    # parses it
    real_write_rows = SimulationTrace._write_rows
    real_parse_rows = sim._parse_rows
    full = tmp_path / "full.csv"
    trace = _full_run()
    trace.to_csv(full)

    def write_rows(trace, out, start, stop):
        if start:
            raise OSError(errno.ENOSPC, "no space in part", "spill")
        real_write_rows(trace, out, start, stop)

    def parse_rows(path, start, stop):
        if start > full.stat().st_size // 3:
            raise OSError(errno.EIO, "unreadable part", str(path))
        return real_parse_rows(path, start, stop)
    monkeypatch.setattr(SimulationTrace, "_write_rows", write_rows)
    monkeypatch.setattr(sim, "_parse_rows", parse_rows)
    cores(n_cores)
    with pytest.raises(OSError, match="no space in part") as info:
        trace.to_csv(tmp_path / "trace.csv")
    assert info.value.errno == errno.ENOSPC
    with pytest.raises(OSError, match="unreadable part") as info:
        load_trace_csv(full)
    assert info.value.errno == errno.EIO
    assert all(spill.closed for spill in spills)
    assert sorted(os.listdir(tmp_path)) == ["full.csv", "trace.csv"]
    assert no_child_left()


# ---------------------------------------------------------------------------
# Metrics


def _error_trace(t, e, diverged=False):
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    z = np.zeros_like(t)
    return SimulationTrace(t=t, u=z, y_true=z, y_measured=z, y_ref=z, e=e,
                           f_hat=z, f_true=z, ydot_true=z, yddot_true=z,
                           h=float(t[1] - t[0]) if len(t) > 1 else 1.0,
                           diverged=diverged)


def test_metrics_zero_error():
    m = compute_metrics(_error_trace(np.linspace(0.0, 1.0, 11), np.zeros(11)))
    assert m == Metrics(0.0, 0.0, 0.0, False)


def test_metrics_constant_error():
    t = np.linspace(0.0, 2.0, 21)
    m = compute_metrics(_error_trace(t, np.full(21, -0.5)))
    assert math.isclose(m.rmse, 0.5, rel_tol=1e-12)
    assert math.isclose(m.iae, 1.0, rel_tol=1e-12)
    assert math.isclose(m.tail_max_abs_error, 0.5, rel_tol=1e-12)


def test_metrics_sine_iae_converges_to_four():
    # integral of |sin| over one full period is 4
    errs = []
    for n in (2001, 20001):
        t = np.linspace(0.0, 2.0 * math.pi, n)
        m = compute_metrics(_error_trace(t, np.sin(t)))
        errs.append(abs(m.iae - 4.0))
    assert errs[0] < 1e-3
    assert errs[1] < errs[0]


def test_metrics_tail_window():
    # error that spikes only in the final 20% must dominate the tail metric
    t = np.linspace(0.0, 10.0, 101)
    e = np.zeros(101)
    e[85] = 2.0
    m = compute_metrics(_error_trace(t, e))
    assert m.tail_max_abs_error == 2.0
    e2 = np.zeros(101)
    e2[10] = 2.0
    assert compute_metrics(_error_trace(t, e2)).tail_max_abs_error == 0.0


def test_metrics_empty_trace():
    with pytest.raises(EmptyTrace):
        compute_metrics(_error_trace(np.zeros(0), np.zeros(0)))


def test_metrics_finite_when_squares_or_sums_overflow():
    # every e*e overflows, and so does the trapezoid sum of |e|, yet the
    # rms and the integral of these errors are finite
    e = np.array([3e200, -4e200, 3e200, -4e200])
    big = np.array([1e308, 1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = compute_metrics(_error_trace(np.arange(4.0), e))
        m_big = compute_metrics(_error_trace(np.array([0.0, 0.5, 1.0]), big))
        m_inf = compute_metrics(_error_trace(np.arange(2.0), np.array([1.0, math.inf])))
    assert math.isclose(m.rmse, math.sqrt(12.5) * 1e200, rel_tol=1e-14)
    assert math.isclose(m.iae, 10.5e200, rel_tol=1e-14)
    assert (m_big.rmse, m_big.iae) == (1e308, 1e308)
    assert (m_inf.rmse, m_inf.iae) == (math.inf, math.inf)


def test_metrics_single_sample():
    m = compute_metrics(_error_trace(np.array([0.0]), np.array([0.3])))
    assert math.isclose(m.rmse, 0.3)
    assert m.iae == 0.0
    assert math.isclose(m.tail_max_abs_error, 0.3)
