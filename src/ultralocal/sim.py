"""Fixed-step closed-loop simulation of a second-order LTI test plant.

The plant is ydd + a1*yd + a0*y = b*delta*u with delta in [0, 1] modeling
actuator effectiveness loss. The loop runs at a fixed step with zero-order
hold on the input, RK4 integration between samples, and additive Gaussian
measurement noise on the output seen by the controller. Ground truth is
logged alongside for analysis.
"""

from __future__ import annotations

import functools
import math
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np

from .control import (
    ANALYSIS_FORM,
    CLASSIC_PID,
    IPD,
    ConfigMismatch,
    ControllerSpec,
    EstimatorConfig,
    filter_constants,
)
from .pool import part_bounds, run_jobs

# |y_true| beyond this is treated as loop divergence; the trace is truncated
# at the first crossing sample and flagged.
BLOWUP_THRESHOLD = 1e3

# Largest sample count duration / h a run may ask for. A run
# (run_closed_loop) peaks at about 140 bytes per sample, mostly the float
# arrays of its input columns and of the trace it returns: about 140 MB
# at this cap. The Python float lists it steps through are one block of
# _LOOP_BLOCK samples long.
MAX_SAMPLES = 1_000_000

# regulation_diverged reads the y and v of _FLAG_BLOCK samples at once,
# in the blocks that a bound cannot settle, from a stack of _FLAG_BLOCK
# (y, v) row pairs of matrix powers per loop, for _FLAG_LOOPS loops at a
# time, and _FLAG_LOOPS (block, loop) pairs per product: about 0.25 MB of
# 6-wide rows each. A value decides a flag only if it is more than _FLAG_MARGIN, relative, from the
# threshold: the matrix and the simulated loop differ by about 1e-12.
_FLAG_BLOCK = 256
_FLAG_LOOPS = 10
_FLAG_MARGIN = 1e-6

# Samples per block of a closed-loop run: the input columns it reads are
# turned into Python floats, and the columns it logs into arrays, a block
# at a time.
_LOOP_BLOCK = 4096

# Rows per write of SimulationTrace.to_csv, and the fewest rows of one of
# its parts; and the fewest body bytes of one part of load_trace_csv. A
# part is a pool.run_jobs job, and a job of its own can cost a fork, 2 to
# 3.5 ms in a 50-60 MB process on a 2-vCPU VM: a block's rows take about
# 5 ms to format there, and _READ_PART_BYTES of rows about 6 ms to parse.
# A block's row text peaks at ~0.6 MB (tracemalloc; 4,096 rows: ~2.2 MB),
# and the write costs the same CPU at 512 to 4,096 rows per block.
_CSV_BLOCK_ROWS = 1024
_READ_PART_BYTES = 1 << 19

TRACE_COLUMNS = ("t", "u", "y_true", "y_measured", "y_ref", "e", "f_hat", "f_true")


class EmptyTrace(ValueError):
    """Metrics require at least one logged sample."""


@dataclass(frozen=True)
class LtiPlant:
    """Second-order plant ydd + a1*yd + a0*y = b*delta*u.

    delta in [0, 1] scales the input path only (actuator degradation);
    the controllers are never told about it.
    """

    a1: float
    a0: float
    b: float
    delta: float = 1.0

    def __post_init__(self):
        for name in ("a1", "a0", "b", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must be within [0, 1], got %r" % (self.delta,))


def example_plant(delta: float = 1.0) -> LtiPlant:
    """The unstable test plant ydd - yd = delta*u used across the package."""
    return LtiPlant(a1=-1.0, a0=0.0, b=1.0, delta=delta)


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian output noise, reproducible from (sigma, seed)."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be >= 0, got %r" % (self.sigma,))
        # the range of the CLI's seed key
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be an integer in [0, 2**64), got %r" % (self.seed,))

    def sequence(self, n: int) -> np.ndarray:
        """n pregenerated draws; identical (sigma, seed, n) gives identical
        bits. ValueError where sigma times a standard normal draw overflows."""
        if self.sigma == 0.0:
            return np.zeros(n)
        with np.errstate(over="ignore"):
            draws = self.sigma * np.random.default_rng(self.seed).standard_normal(n)
        if not np.isfinite(draws).all():
            raise ValueError("sigma = %r overflows a noise draw of seed %d"
                             % (self.sigma, self.seed))
        return draws


CONSTANT = "constant"
SMOOTH_STEP = "smooth-step"


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Reference signal with analytically consistent derivatives.

    constant: y_ref = level at all times.
    smooth-step: quintic polynomial easing from y_start to y_end over
    [t_start, t_end]; position, velocity and acceleration are continuous,
    with zero velocity and acceleration at both ends.
    """

    kind: str
    level: float = 0.0
    y_start: float = 0.0
    y_end: float = 0.0
    t_start: float = 0.0
    t_end: float = 1.0

    def __post_init__(self):
        if self.kind not in (CONSTANT, SMOOTH_STEP):
            raise ValueError("kind must be %r or %r, got %r" % (CONSTANT, SMOOTH_STEP, self.kind))
        for name in ("level", "y_start", "y_end", "t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.kind == SMOOTH_STEP and not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start, got t_start = %r, t_end = %r"
                             % (self.t_start, self.t_end))
        # the quintic scales by the rise and the span: each must be finite
        for start, end in (("y_start", "y_end"), ("t_start", "t_end")):
            a, b = getattr(self, start), getattr(self, end)
            if self.kind == SMOOTH_STEP and not math.isfinite(b - a):
                raise ValueError("%s - %s must be finite, got %s = %r, %s = %r"
                                 % (end, start, start, a, end, b))

    @classmethod
    def constant(cls, level: float) -> "ReferenceTrajectory":
        return cls(CONSTANT, level=level)

    @classmethod
    def smooth_step(cls, y_start: float, y_end: float,
                    t_start: float, t_end: float) -> "ReferenceTrajectory":
        return cls(SMOOTH_STEP, y_start=y_start, y_end=y_end,
                   t_start=t_start, t_end=t_end)

    def eval_array(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Position, velocity and acceleration columns at the times t.

        Elementwise the same float operations as a scalar evaluation of
        the quintic at that time.
        """
        t = np.asarray(t, dtype=float)
        pos = np.empty(t.shape)
        vel = np.zeros(t.shape)
        acc = np.zeros(t.shape)
        if self.kind == CONSTANT:
            pos[:] = self.level
            return pos, vel, acc
        span = self.t_end - self.t_start
        with np.errstate(all="ignore"):
            tau = (t - self.t_start) / span
            before = tau <= 0.0
            after = tau >= 1.0
            pos[before] = self.y_start
            pos[after] = self.y_end
            inside = ~(before | after)
            tau = tau[inside]
            rise = self.y_end - self.y_start
            t2 = tau * tau
            t3 = t2 * tau
            # 6 tau^5 - 15 tau^4 + 10 tau^3 and its scaled derivatives
            pos[inside] = self.y_start + rise * t3 * (10.0 + tau * (-15.0 + 6.0 * tau))
            vel[inside] = rise * t2 * (30.0 + tau * (-60.0 + 30.0 * tau)) / span
            acc[inside] = (rise * tau * (60.0 + tau * (-180.0 + 120.0 * tau))
                           / (span * span))
        return pos, vel, acc


@dataclass
class SimulationTrace:
    """Logged closed-loop run.

    The eight pinned CSV columns are in TRACE_COLUMNS; ydot_true/yddot_true
    are extra in-memory diagnostics (exact state derivatives) that never
    reach the CSV.
    """

    t: np.ndarray
    u: np.ndarray
    y_true: np.ndarray
    y_measured: np.ndarray
    y_ref: np.ndarray
    e: np.ndarray
    f_hat: np.ndarray
    f_true: np.ndarray
    ydot_true: np.ndarray
    yddot_true: np.ndarray
    h: float
    diverged: bool = False
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.t.shape[0]

    def to_csv(self, path) -> None:
        """Write the pinned columns with repr floats (round-trip exact), LF endings.

        The rows are cut into contiguous parts (pool.part_bounds, none
        shorter than _CSV_BLOCK_ROWS rows), each written by one
        pool.run_jobs job: the first straight into the file after the
        header, the others into anonymous spill files in the file's
        directory, which are then appended in order. A short trace, and a
        trace written inside a job of a run_jobs call that forked, is one
        part, written here. Rows are formatted and written in blocks of
        _CSV_BLOCK_ROWS, and spill files copied in bounded chunks, so the
        text of a long trace is never held in memory whole. The bytes do
        not depend on the part count.
        """
        bounds = part_bounds(len(self), _CSV_BLOCK_ROWS)
        with open(path, "wb") as fh:
            fh.write((",".join(TRACE_COLUMNS) + "\n").encode())
            fh.flush()  # before any fork, so that the header is written once
            spills = []
            try:
                for _ in bounds[2:]:
                    spills.append(tempfile.TemporaryFile(
                        dir=os.path.dirname(os.path.abspath(path))))
                run_jobs([functools.partial(self._write_rows, out, start, stop)
                          for out, start, stop in zip([fh] + spills, bounds, bounds[1:])])
                for spill in spills:
                    fh.seek(0, os.SEEK_END)  # past the parts before, whichever process wrote them
                    spill.seek(0)
                    shutil.copyfileobj(spill, fh)
            finally:
                for spill in spills:
                    spill.close()

    def _write_rows(self, out, start: int, stop: int) -> None:
        """CSV rows start to stop into the binary handle out, flushed before
        this returns: a forked child leaves through os._exit, which flushes
        nothing."""
        for first in range(start, stop, _CSV_BLOCK_ROWS):
            last = min(stop, first + _CSV_BLOCK_ROWS)
            cols = [map(repr, getattr(self, name)[first:last].tolist())
                    for name in TRACE_COLUMNS]
            out.write(("\n".join(map(",".join, zip(*cols))) + "\n").encode())
        out.flush()


def _lines(path, start: int, stop: int):
    """Bytes start to stop of a file, each a line start or the end, as lines
    split at LF alone and decoded as UTF-8, read about 64 KiB at a time: a
    UnicodeDecodeError, a ValueError, at the first line that is not."""
    with open(path, "rb") as fh:
        fh.seek(start)
        while start < stop and (block := fh.readlines(min(stop - start, 1 << 16))):
            start += sum(map(len, block))
            # readlines adds one line more where the lines fill the hint
            # exactly: in the last block, a line past stop
            yield from map(bytes.decode, block if start <= stop else block[:-1])


def _parse_rows(path, start: int, stop: int) -> np.ndarray:
    """The rows of bytes start to stop of a trace CSV, as a 2-D array."""
    with warnings.catch_warnings():
        # a range of empty lines is an empty part, not a fault
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(_lines(path, start, stop), delimiter=",", comments=None, ndmin=2)


def _faulty_row(path, start: int, stop: int):
    """A ValueError naming by its line in the file the first body line
    (bytes start to stop, after a one-line header) that is not UTF-8,
    holds a bare CR, whose field count differs from the first row's, or
    with a field np.loadtxt cannot read; None if none is. An empty line
    is no row."""
    number, width = 1, None
    try:
        for number, line in enumerate(_lines(path, start, stop), 2):
            line = line.removesuffix("\n").removesuffix("\r")
            if "\r" in line:
                return ValueError("%s: line %d holds a bare CR; only LF and CRLF line ends"
                                  " are read" % (path, number))
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                return ValueError("%s: line %d has %d fields, the rows above it %d"
                                  % (path, number, len(fields), width))
            field = _unread_field(fields)
            if field is not None:
                return ValueError("%s: line %d: %r is not a number" % (path, number, field))
    except UnicodeDecodeError:
        return ValueError("%s: line %d is not UTF-8 text" % (path, number + 1))
    return None


def _unread_field(fields: list):
    """The first of a body line's fields that np.loadtxt cannot read as a
    float, or None. An ASCII field without an underscore reads as float()
    reads it; numpy reads no underscore and no other digits than ASCII
    ones."""
    for field in fields:
        if not (field.isascii() and "_" not in field):
            return field
        try:
            float(field)
        except ValueError:
            return field
    return None


def _line_start(fh, offset: int) -> int:
    """The first line start at or after offset in the binary file fh."""
    fh.seek(offset - 1)
    while (chunk := fh.readline(1 << 16)) and not chunk.endswith(b"\n"):
        pass
    return fh.tell()


def load_trace_csv(path) -> dict[str, np.ndarray]:
    """Read a trace CSV back into a column dict (inverse of to_csv).

    The file is read as UTF-8 text with LF or CRLF line ends. The body is
    cut at line starts into byte ranges (pool.part_bounds, none shorter
    than _READ_PART_BYTES); one pool.run_jobs job each parses the _lines
    of a range with np.loadtxt, whose correctly rounded string-to-double
    is float()'s, so repr-written floats load bit for bit whatever the
    part count. A header-only file gives empty columns. ValueError is
    raised for a missing or repeating header, one that is not UTF-8 or
    holds a bare CR, rows whose width differs from the header's, and a
    part or join that fails: _faulty_row's error naming the line, or
    else numpy's with the path.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        try:
            line = first.decode().strip()
        except UnicodeDecodeError:
            raise ValueError("%s: line 1 is not UTF-8 text" % (path,)) from None
        if not line:
            raise ValueError("%s: no header line" % (path,))
        if "\r" in line:
            raise ValueError("%s: line 1 holds a bare CR; only LF and CRLF line ends are read"
                             % (path,))
        header = line.split(",")
        if len(set(header)) != len(header):
            repeated = sorted(name for name in set(header) if header.count(name) > 1)
            raise ValueError("%s: the header repeats column %s"
                             % (path, ", ".join(map(repr, repeated))))
        body, size = len(first), os.fstat(fh.fileno()).st_size
        cuts = [body] + [_line_start(fh, body + offset) for offset in
                         part_bounds(size - body, _READ_PART_BYTES)[1:-1]] + [size]
    try:
        parts = [part for part in run_jobs([functools.partial(_parse_rows, path, start, stop)
                                            for start, stop in zip(cuts, cuts[1:])
                                            if start < stop])
                 if part.size] or [np.empty((0, len(header)))]
        data = np.concatenate(parts) if len(parts) > 1 else parts[0]
    except ValueError as exc:
        raise _faulty_row(path, body, size) or ValueError("%s: %s" % (path, exc)) from exc
    if data.shape[1] != len(header):
        raise ValueError("%s: the header names %d columns but the rows have %d fields"
                         % (path, len(header), data.shape[1]))
    return {name: data[:, i] for i, name in enumerate(header)}


@dataclass(frozen=True)
class Metrics:
    rmse: float
    iae: float
    tail_max_abs_error: float
    diverged: bool


def _overflow_safe(stat, e: np.ndarray) -> float:
    """stat(e) for a stat with stat(c*e) = c*stat(e) at c > 0.

    Where e*e or a sum overflows although every e is finite, the value is
    max|e| * stat(e / max|e|) instead; a value that is finite keeps its
    bits.
    """
    with np.errstate(over="ignore"):
        value = stat(e)
        if math.isfinite(value):
            return value
        scale = float(np.max(np.abs(e)))
        return scale * stat(e / scale) if 0.0 < scale < math.inf else value


def compute_metrics(trace: SimulationTrace) -> Metrics:
    """Tracking-error metrics over the logged samples.

    rmse is the root mean square of the error column, iae its trapezoidal
    time integral of absolute value, tail_max_abs_error the largest |e|
    over the final 20% of samples.
    """
    n = len(trace)
    if n == 0:
        raise EmptyTrace("trace has no samples")
    e = trace.e
    rmse = _overflow_safe(lambda x: float(np.sqrt(np.mean(x * x))), e)
    iae = 0.0
    if n > 1:
        iae = _overflow_safe(lambda x: float(np.trapezoid(np.abs(x), trace.t)), e)
    start = min(int(math.floor(0.8 * n)), n - 1)
    tail = float(np.max(np.abs(e[start:])))
    return Metrics(rmse, iae, tail, trace.diverged)


def sample_count(h: float, duration: float) -> int:
    """Samples of a closed-loop run; ValueError unless h is positive and
    finite and duration / h is at least ten and at most MAX_SAMPLES."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("h must be positive, got %r" % (h,))
    if not duration >= 10.0 * h:
        raise ValueError("duration must cover at least ten steps")
    if not duration / h <= MAX_SAMPLES:
        raise ValueError("duration / h = %r samples, above the cap of %d"
                         % (duration / h, MAX_SAMPLES))
    return int(round(duration / h)) + 1


def _loop_law(plant, controller, estimator, h, y0, ydot0, use_oracle_estimator,
              pid_filter_time) -> tuple:
    """(structure, constants) of a loop, or an error for one that cannot
    run: a non-finite start, or a controller that its estimator, or the
    oracle mode, does not fit.

    structure is what a step branches on, (law, estimator variant), the
    variant None in the oracle mode and for the classic PID. constants is
    the row of floats it reads, (a1, a0, b*delta, kp, ki, kd, alpha, keep,
    gain, ea1, ea0, eb), neutral where a law reads none: alpha 0.0 for the
    PID; (keep, gain) the lag stage's (the estimate's, the PID's on its
    error), 0.0 in the oracle mode; (ea1, ea0, eb) the analysis form's
    plant coefficients, else (0.0, 0.0, 1.0).
    """
    for name, value in (("y0", y0), ("ydot0", ydot0)):
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    kind, variant, alpha, lag = controller.kind, None, controller.alpha, (0.0, 0.0)
    if use_oracle_estimator:
        if kind != IPD:
            raise ConfigMismatch("oracle estimator mode requires the iPD law")
        if plant.b * plant.delta == 0.0:
            raise ConfigMismatch("oracle estimator mode needs b*delta != 0")
    elif kind != CLASSIC_PID:
        if estimator is None:
            raise ConfigMismatch("intelligent controller needs an estimator config")
        if estimator.nu != controller.nu:
            raise ConfigMismatch(
                "estimator order %d does not match controller order %d"
                % (estimator.nu, controller.nu))
        if estimator.alpha != controller.alpha:
            raise ConfigMismatch("estimator and controller alpha must match")
        variant, lag = estimator.variant, filter_constants(estimator.t_filter, h)
    elif not (pid_filter_time > 0.0 and math.isfinite(pid_filter_time)):
        raise ValueError("pid_filter_time must be positive, got %r" % (pid_filter_time,))
    else:
        alpha, lag = 0.0, filter_constants(pid_filter_time, h)
    return ((kind, variant),
            (plant.a1, plant.a0, plant.b * plant.delta, controller.kp, controller.ki,
             controller.kd, alpha) + lag
            + (estimator.plant_coeffs if variant == ANALYSIS_FORM else (0.0, 0.0, 1.0)))


def run_closed_loop(plant: LtiPlant, controller: ControllerSpec,
                    estimator: EstimatorConfig | None,
                    reference: ReferenceTrajectory, noise: NoiseModel,
                    h: float = 1e-3, duration: float = 20.0,
                    y0: float = 0.0, ydot0: float = 0.0,
                    use_oracle_estimator: bool = False,
                    pid_filter_time: float = 0.1,
                    meta: dict | None = None) -> SimulationTrace:
    """Simulate the sampled closed loop and log every sample.

    At each sample the controller sees only the noisy measurement; the
    lumped-term estimate may use inputs up to the previous sample only.
    The logged f_true is the exact lumped term for the controller's
    ultra-local order (0 for the classic PID, which has no such model).

    use_oracle_estimator replaces the filtered estimate with the exact
    lumped term, resolving the resulting algebraic loop in closed form;
    this is only well defined for the iPD on a plant with actuator
    authority (delta > 0).

    A |y_true| > BLOWUP_THRESHOLD crossing or a non-finite integration
    state truncates the trace at that sample and sets the diverged flag
    instead of raising, so sweeps can treat divergence as data.

    The step is straight-line code on local floats. The estimate is
    control.replay_estimator's arithmetic: two backward-Euler lag stages
    on the measured output (constants from control.filter_constants) and
    the delayed-input or analysis-form estimate. One expression serves iP
    and iPD, the iP's absent derivative term a kd of +0.0 times a literal
    0.0; the classic PID lags its error with one such stage; an inline RK4
    step integrates the plant.
    Time, noise and reference columns are computed before the loop and
    the columns derived from u, y and ydot after it. The tests hold every
    column bit-identical to the frozen per-sample loop in
    tests/loop_oracle.py, and f_hat to replay_estimator. _lane_step is the
    same step over arrays, without noise, reference or the oracle mode;
    both read the loop's law from _loop_law.
    """
    n = sample_count(h, duration)
    (kind, variant), (a1, a0, bd, kp, ki, kd, alpha, keep, gain, ea1, ea0, eb) = _loop_law(
        plant, controller, estimator, h, y0, ydot0, use_oracle_estimator, pid_filter_time)
    intelligent = kind != CLASSIC_PID
    estimating = variant is not None
    analysis = variant == ANALYSIS_FORM
    derivative = kind == IPD
    nu = controller.nu
    hh = 0.5 * h

    t = np.arange(n) * h
    noise_col = noise.sequence(n)
    y_ref, yd_ref, ydd_ref = reference.eval_array(t)

    logged = []  # (u, y, ydot, f_hat) arrays of each block of samples
    isfinite = math.isfinite
    blowup = BLOWUP_THRESHOLD

    y = float(y0)
    v = float(ydot0)
    e_int = 0.0
    e_prev = 0.0
    # d1, d2: the filter stages' outputs (d1 alone, on e, for the classic
    # PID). Stage 2's memory is the previous d1. Sample 0 only primes the
    # memories and leaves both outputs 0.0.
    ym_prev = 0.0
    d1 = 0.0
    d2 = 0.0
    u_prev = 0.0
    f_hat = 0.0  # stays 0.0, and its log unused, where nothing is estimated
    diverged = False
    last = n - 1
    # ydn_r is the reference derivative of the law's order: yd_ref for
    # nu = 1, ydd_ref otherwise (the oracle mode is second order)
    ydn_ref = yd_ref if nu == 1 else ydd_ref
    # the input columns go to Python floats, and the logs to arrays, one
    # block at a time, so that neither is held as lists for the whole run
    for start in range(0, n, _LOOP_BLOCK):
        block = slice(start, start + _LOOP_BLOCK)
        u_log = []
        y_log = []
        v_log = []
        fh_log = []
        log_u = u_log.append
        log_y = y_log.append
        log_v = v_log.append
        log_fh = fh_log.append
        columns = zip(range(start, min(n, block.stop)), noise_col[block].tolist(),
                      y_ref[block].tolist(), yd_ref[block].tolist(), ydn_ref[block].tolist())
        for k, nz, ys, yd_r, ydn_r in columns:
            ym = y + nz
            if estimating:
                # the filter statements are control._lag_stages' and the f_hat
                # statement replay_estimator's, so that a replay reproduces
                # f_hat bit for bit: change both
                e = ys - ym
                if k:
                    s1 = keep * d1 + gain * ((ym - ym_prev) / h)
                    d2 = keep * d2 + gain * ((s1 - d1) / h)
                    d1 = s1
                ym_prev = ym
                f_hat = ((d1 if nu == 1 else d2)
                         - alpha * ((d2 + ea1 * d1 + ea0 * ym) / eb if analysis else u_prev))
                u = -(f_hat - ydn_r - kp * e - kd * (yd_r - d1 if derivative else 0.0)) / alpha
            elif intelligent:
                # oracle mode (the iPD): exact lumped term, on the true error
                e = ys - y
                u = (ydn_r + kp * e + kd * (yd_r - v) + a1 * v + a0 * y) / bd
            else:
                e = ys - ym
                if k:
                    e_int += hh * (e_prev + e)
                    d1 = keep * d1 + gain * ((e - e_prev) / h)
                e_prev = e
                u = kp * e + ki * e_int + kd * d1

            log_u(u)
            log_y(y)
            log_v(v)
            log_fh(f_hat)

            if abs(y) > blowup:
                diverged = True
                break
            if k == last:
                break
            # RK4 over the step with u held: ydot = v, vdot = bd*u - a1*v - a0*y
            fu = bd * u
            k1v = fu - a1 * v - a0 * y
            y2 = y + hh * v
            v2 = v + hh * k1v
            k2v = fu - a1 * v2 - a0 * y2
            y3 = y + hh * v2
            v3 = v + hh * k2v
            k3v = fu - a1 * v3 - a0 * y3
            y4 = y + h * v3
            v4 = v + h * k3v
            k4v = fu - a1 * v4 - a0 * y4
            y, v = (y + h * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0,
                    v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0)
            if not (isfinite(y) and isfinite(v)):
                diverged = True
                break
            u_prev = u
        logged.append((np.array(u_log), np.array(y_log), np.array(v_log),
                       np.array(fh_log)))
        if diverged or k == last:
            break

    u, y_true, ydot, fh_logged = (np.concatenate(column) for column in zip(*logged))
    m = len(u)
    y_measured = y_true + noise_col[:m]
    with np.errstate(over="ignore", invalid="ignore"):
        yddot = bd * u - a1 * ydot - a0 * y_true
        if intelligent:
            f_true = (ydot if nu == 1 else yddot) - alpha * u
        else:
            f_true = np.zeros(m)
    if estimating:
        f_hat = fh_logged
    else:
        f_hat = f_true.copy()

    trace_meta = {"controller": controller.describe(),
                  "sigma": noise.sigma, "seed": noise.seed,
                  "delta": plant.delta, "h": h,
                  "oracle_estimator": bool(use_oracle_estimator)}
    if estimating:
        trace_meta["estimator"] = "%s(nu=%d, alpha=%g, T=%g)" % (
            estimator.variant, estimator.nu, estimator.alpha, estimator.t_filter)
    if meta:
        trace_meta.update(meta)

    return SimulationTrace(
        t=t[:m], u=u, y_true=y_true, y_measured=y_measured, y_ref=y_ref[:m],
        e=y_ref[:m] - y_measured, f_hat=f_hat, f_true=f_true,
        ydot_true=ydot, yddot_true=yddot, h=h, diverged=diverged, meta=trace_meta)


def _lane_step(state, structure, constants, h, first=False):
    """One step of run_closed_loop's loop without noise, with a zero
    reference and without the oracle mode, over lanes.

    state holds numpy arrays, one lane per element, that broadcast with
    _loop_law's constants (columns of one structure's loops, one per
    lane): (y, v, ym_prev, d1, d2, u_prev) for the iP and iPD,
    (y, v, e_prev, e_int, d1) for the classic PID, as the loop holds them
    before a sample. Returns the state after it: the law's statements,
    then RK4, with every noise and reference value the 0.0 the loop sees.
    first runs sample 0, which only primes the filter memories.
    """
    kind, variant = structure
    a1, a0, bd, kp, ki, kd, alpha, keep, gain, ea1, ea0, eb = constants
    hh = 0.5 * h
    if kind != CLASSIC_PID:
        y, v, ym_prev, d1, d2, u_prev = state
        ym = y + 0.0
        e = 0.0 - ym
        if not first:
            s1 = keep * d1 + gain * ((ym - ym_prev) / h)
            d2 = keep * d2 + gain * ((s1 - d1) / h)
            d1 = s1
        u_sub = (d2 + ea1 * d1 + ea0 * ym) / eb if variant == ANALYSIS_FORM else u_prev
        f_hat = (d2 if kind == IPD else d1) - alpha * u_sub
        u = -(f_hat - 0.0 - kp * e - kd * (0.0 - d1 if kind == IPD else 0.0)) / alpha
        memory = (ym, d1, d2, u)
    else:
        y, v, e_prev, e_int, d1 = state
        e = 0.0 - (y + 0.0)
        if not first:
            e_int = e_int + hh * (e_prev + e)
            d1 = keep * d1 + gain * ((e - e_prev) / h)
        u = kp * e + ki * e_int + kd * d1
        memory = (e, e_int, d1)
    fu = bd * u
    k1v = fu - a1 * v - a0 * y
    y2 = y + hh * v
    v2 = v + hh * k1v
    k2v = fu - a1 * v2 - a0 * y2
    y3 = y + hh * v2
    v3 = v + hh * k2v
    k3v = fu - a1 * v3 - a0 * y3
    y4 = y + h * v3
    v4 = v + h * k3v
    k4v = fu - a1 * v4 - a0 * y4
    return (y + h * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0,
            v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0) + memory


def loop_matrices(loops: list, h: float = 1e-3, pid_filter_time: float = 0.1) -> tuple:
    """(A, x1) of each noise-free (plant, controller, estimator, y0, ydot0)
    of loops regulated to zero, as stacks of shapes (len(loops), 6, 6) and
    (len(loops), 6); an error names the loop's index.

    Every step after sample 0 is the linear map x -> A x of the loop's
    state x, (y, v, ym_prev, d1, d2, u_prev) for the iP and iPD and
    (y, v, e_prev, e_int, d1) for the classic PID, whose A fills the
    top-left 5x5 block, with 0.0 in its sixth row and column and x1[5];
    x1 is the state after sample 0 from (y0, ydot0). So y_true[k] of
    run_closed_loop with a constant 0.0 reference and no noise is
    (A^(k-1) x1)[0] for k >= 1, up to rounding, and log(max |eig A|) / h
    is the loop's asymptotic rate. Two _lane_step calls per structure
    (law and estimator variant) build all its loops' A's, one lane per
    (loop, basis vector), and x1's, one lane per loop.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("h must be positive, got %r" % (h,))
    groups = {}  # structure -> [(index, constants, y0, ydot0)] of its loops
    for i, (plant, controller, estimator, y0, ydot0) in enumerate(loops):
        try:
            structure, constants = _loop_law(plant, controller, estimator, h, y0, ydot0, False,
                                             pid_filter_time)
        except ValueError as exc:
            raise type(exc)("loop %d: %s" % (i, exc)) from None
        groups.setdefault(structure, []).append((i, constants, float(y0), float(ydot0)))
    a = np.zeros((len(loops), 6, 6))
    x1 = np.zeros((len(loops), 6))
    for structure, members in groups.items():
        index, constants, y0, ydot0 = zip(*members)
        columns = tuple(np.array(constants, float).T[..., None])  # (loop, 1) each
        d = 5 if structure[0] == CLASSIC_PID else 6
        basis = np.broadcast_to(np.eye(d)[:, None], (d, len(index), d))
        start = np.zeros((d, len(index), 1))
        start[:2, :, 0] = y0, ydot0
        with np.errstate(all="ignore"):
            a[index, :d, :d] = np.stack(_lane_step(tuple(basis), structure, columns, h), axis=1)
            x1[index, :d] = np.stack(_lane_step(tuple(start), structure, columns, h, first=True),
                                     axis=1)[..., 0]
    return a, x1


def regulation_diverged(loops: list, h: float = 1e-3, duration: float = 20.0,
                        pid_filter_time: float = 0.1) -> list:
    """run_closed_loop(plant, controller, estimator,
    ReferenceTrajectory.constant(0.0), NoiseModel(0.0), h, duration, y0,
    ydot0, pid_filter_time=pid_filter_time).diverged for each (plant,
    controller, estimator, y0, ydot0) of loops.

    Each loop's flag is read from its (A, x1) (loop_matrices), in
    blocks of _FLAG_BLOCK samples: the rows of A^j (j < _FLAG_BLOCK)
    times the state at a block's start give the y and v of its samples.
    These differ from the simulated ones by rounding only, so a loop is
    decided here only where that cannot matter: a |y| above
    BLOWUP_THRESHOLD * (1 + _FLAG_MARGIN) before any non-finite value
    (diverged), or every value finite and |y| below
    low = BLOWUP_THRESHOLD * (1 - _FLAG_MARGIN) (not diverged). Any other
    loop is simulated by run_closed_loop. A block whose bound on |y| is
    below low and whose bound on |v| is finite is settled, and its values
    are never evaluated (_clear_flags).
    """
    n = sample_count(h, duration)
    a, x1 = loop_matrices(loops, h, pid_filter_time)
    y0 = [loop[3] for loop in loops]
    flags = []
    for start in range(0, len(loops), _FLAG_LOOPS):
        chunk = slice(start, start + _FLAG_LOOPS)
        flags.extend(_clear_flags(a[chunk], x1[chunk], y0[chunk], n))
    zero, quiet = ReferenceTrajectory.constant(0.0), NoiseModel(0.0)
    return [run_closed_loop(plant, controller, estimator, zero, quiet, h, duration, y0, ydot0,
                            pid_filter_time=pid_filter_time).diverged if flag is None else flag
            for (plant, controller, estimator, y0, ydot0), flag in zip(loops, flags)]


def _clear_flags(a, x1, y0: list, n: int) -> list:
    """Per (A, x1) of the stacks a and x1 with its y0: True or False where
    the n samples' blocked values decide the diverged flag clearly, else
    None.

    Block m of a loop starts at sample 1 + m * _FLAG_BLOCK from the state
    x_m = A^(m * _FLAG_BLOCK) x1. With reach the largest |entry| of each
    column of the loop's y rows of A^j (j < _FLAG_BLOCK), |x_m| . reach
    bounds every |y| of the block, and likewise for v. A block is settled
    where the y bound is below low and the v bound is finite: it holds no
    non-finite value and no |y| at or above low, so it cannot set a flag.
    Deciding from the bound is as safe as from the values: low already
    sits _FLAG_MARGIN inside the threshold for the rounding gap between
    the matrix and the simulated loop, far wider than the bound's own
    rounding. Only unsettled blocks are evaluated, _FLAG_LOOPS (block,
    loop) pairs per product in block order, none of a loop after its first
    clear crossing or non-finite value; the earliest of those, over its
    blocks, decides its flag. They come from the start states and rows a
    scan of every block uses, so the flags are that scan's unless a bound
    falls within a few ulps under low while a value reaches it.
    """
    d = a.shape[-1]
    high = BLOWUP_THRESHOLD * (1.0 + _FLAG_MARGIN)
    low = BLOWUP_THRESHOLD * (1.0 - _FLAG_MARGIN)
    y0 = np.abs(np.array(y0))
    crossed = y0 > high  # a clear crossing before any non-finite value
    near = y0 >= low  # some |y| at or above the lower bound
    blocks = len(range(1, n, _FLAG_BLOCK))  # block m starts at sample 1 + m * _FLAG_BLOCK
    with np.errstate(all="ignore"):
        # the (y, v) rows of A^j for j < _FLAG_BLOCK, doubled in place,
        # their reach, and power = A^_FLAG_BLOCK
        rows = np.empty((len(y0), 2 * _FLAG_BLOCK, d))
        rows[:, :2] = np.eye(d)[:2]
        reach = np.abs(rows[:, :2])
        power = a
        for w in (2 << k for k in range(_FLAG_BLOCK.bit_length() - 1)):
            new = np.matmul(rows[:, :w], power, out=rows[:, w:2 * w])
            reach = np.maximum(reach, np.abs(new).reshape(len(y0), -1, 2, d).max(axis=1))
            power = power @ power
        # every block's start state, stepped by power as the samples run
        states = np.empty((blocks, len(y0), d, 1))
        states[0] = x1[..., None]
        for m in range(1, blocks):
            np.matmul(power, states[m - 1], out=states[m])
        bound = (np.abs(states) * reach.swapaxes(1, 2)).sum(axis=2)  # (block, loop, y/v)
        # NaN fails both tests: a block with a non-finite bound is evaluated
        settled = (bound[..., 0] < low) & np.isfinite(bound[..., 1])
        # each loop's first sample clearly over the threshold, and its first
        # non-finite one, from its unsettled blocks (n: none)
        first_over = np.full(len(y0), n)
        first_bad = np.full(len(y0), n)
        pairs = np.argwhere(~settled & ~crossed)  # (block, loop), block-major
        while len(pairs):
            m, loops = pairs[:_FLAG_LOOPS].T
            yv = (rows[loops] @ states[m, loops]).reshape(len(loops), _FLAG_BLOCK, 2)
            sample = (1 + m * _FLAG_BLOCK)[:, None] + np.arange(_FLAG_BLOCK)
            inside = sample < n  # the last block's samples from n on are not the run's
            y = np.abs(yv[..., 0])
            bad = ~(np.isfinite(yv[..., 0]) & np.isfinite(yv[..., 1])) & inside
            np.minimum.at(first_over, loops, np.where((y > high) & inside, sample, n).min(1))
            np.minimum.at(first_bad, loops, np.where(bad, sample, n).min(1))
            np.logical_or.at(near, loops, ((y >= low) & inside).any(axis=1))
            # a loop with a crossing or a non-finite value needs no later block
            pairs = pairs[_FLAG_LOOPS:]
            pairs = pairs[np.minimum(first_over, first_bad)[pairs[:, 1]] == n]
    crossed |= first_over < first_bad
    broken = (first_bad <= first_over) & (first_bad < n)
    return [True if c else None if b or m else False
            for c, b, m in zip(crossed.tolist(), broken.tolist(), near.tolist())]
