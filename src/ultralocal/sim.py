"""Fixed-step closed-loop simulation of a second-order LTI test plant.

The plant is ydd + a1*yd + a0*y = b*delta*u with delta in [0, 1] modeling
actuator effectiveness loss. The loop runs at a fixed step with zero-order
hold on the input, RK4 integration between samples, and additive Gaussian
measurement noise on the output seen by the controller. Ground truth is
logged alongside for analysis.
"""

from __future__ import annotations

import math
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

# |y_true| beyond this is treated as loop divergence; the trace is truncated
# at the first crossing sample and flagged.
BLOWUP_THRESHOLD = 1e3

# Largest sample count duration / h a run may ask for. A logged run
# (run_closed_loop) peaks at about 140 bytes per sample, mostly the float
# arrays of its input columns and of the trace it returns: about 140 MB
# at this cap. A flag-only run (closed_loop_diverges) logs nothing and
# peaks at about 50 bytes per sample. The Python float lists it steps
# through are one block of _LOOP_BLOCK samples long.
MAX_SAMPLES = 1_000_000

# Samples per block of a closed-loop run: the input columns it reads are
# turned into Python floats, and the columns it logs into arrays, a block
# at a time.
_LOOP_BLOCK = 4096

# Rows per write of SimulationTrace.to_csv.
_CSV_BLOCK_ROWS = 4096

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

    def sequence(self, n: int) -> np.ndarray:
        """n pregenerated draws; identical (sigma, seed, n) gives identical bits."""
        if self.sigma == 0.0:
            return np.zeros(n)
        rng = np.random.default_rng(self.seed)
        return self.sigma * rng.standard_normal(n)


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

    @classmethod
    def constant(cls, level: float) -> "ReferenceTrajectory":
        return cls(CONSTANT, level=level)

    @classmethod
    def smooth_step(cls, y_start: float, y_end: float,
                    t_start: float, t_end: float) -> "ReferenceTrajectory":
        if not t_end > t_start:
            raise ValueError("t_end must exceed t_start")
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

        Rows are formatted and written in blocks of _CSV_BLOCK_ROWS, so the
        text of a long trace is never held in memory whole.
        """
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for start in range(0, len(self), _CSV_BLOCK_ROWS):
                stop = start + _CSV_BLOCK_ROWS
                cols = [map(repr, getattr(self, name)[start:stop].tolist())
                        for name in TRACE_COLUMNS]
                fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


def load_trace_csv(path) -> dict[str, np.ndarray]:
    """Read a trace CSV back into a column dict (inverse of to_csv).

    numpy's C reader parses the rows with the same correctly rounded
    string-to-double as float(), so repr-written floats load bit for bit.
    A header-only file gives empty columns; an empty file or header line,
    a name the header repeats, a ragged row, or rows whose width differs
    from the header's, raises ValueError.
    """
    with open(path, "r", newline="") as fh:
        line = fh.readline().strip()
        if not line:
            raise ValueError("%s: no header line" % (path,))
        header = line.split(",")
        if len(set(header)) != len(header):
            repeated = sorted(name for name in set(header) if header.count(name) > 1)
            raise ValueError("%s: the header repeats column %s"
                             % (path, ", ".join(map(repr, repeated))))
        with warnings.catch_warnings():
            # a header-only file is an empty trace, not a fault
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if data.size == 0:
        data = data.reshape(0, len(header))
    elif data.shape[1] != len(header):
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
    tests/loop_oracle.py, and f_hat to replay_estimator.
    closed_loop_diverges runs the same loop and logs nothing.
    """
    return _simulate(True, plant, controller, estimator, reference, noise, h, duration,
                     y0, ydot0, use_oracle_estimator, pid_filter_time, meta)


def closed_loop_diverges(plant: LtiPlant, controller: ControllerSpec,
                         estimator: EstimatorConfig | None,
                         reference: ReferenceTrajectory, noise: NoiseModel,
                         h: float = 1e-3, duration: float = 20.0,
                         y0: float = 0.0, ydot0: float = 0.0,
                         pid_filter_time: float = 0.1) -> bool:
    """run_closed_loop(...).diverged, from the same loop with nothing logged.

    For callers that need only the flag: no sample is appended to a log,
    and no column or meta dict is built after the loop.
    """
    return _simulate(False, plant, controller, estimator, reference, noise, h, duration,
                     y0, ydot0, False, pid_filter_time, None)


def sample_count(h: float, duration: float) -> int:
    """Samples of a closed-loop run; ValueError unless h is positive and
    finite and duration / h is at least ten and at most MAX_SAMPLES."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("h must be positive, got %r" % (h,))
    if duration < 10.0 * h:
        raise ValueError("duration must cover at least ten steps")
    if not duration / h <= MAX_SAMPLES:
        raise ValueError("duration / h = %r samples, above the cap of %d"
                         % (duration / h, MAX_SAMPLES))
    return int(round(duration / h)) + 1


def _simulate(log, plant, controller, estimator, reference, noise, h, duration, y0, ydot0,
              use_oracle_estimator, pid_filter_time, meta):
    # the loop of run_closed_loop (log true: returns the trace) and of
    # closed_loop_diverges (log false: returns the diverged flag)
    n = sample_count(h, duration)
    for name, value in (("y0", y0), ("ydot0", ydot0)):
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    kind = controller.kind
    intelligent = kind != CLASSIC_PID

    if use_oracle_estimator:
        if kind != IPD:
            raise ConfigMismatch("oracle estimator mode requires the iPD law")
        if plant.b * plant.delta == 0.0:
            raise ConfigMismatch("oracle estimator mode needs b*delta != 0")
    elif intelligent:
        if estimator is None:
            raise ConfigMismatch("intelligent controller needs an estimator config")
        if estimator.nu != controller.nu:
            raise ConfigMismatch(
                "estimator order %d does not match controller order %d"
                % (estimator.nu, controller.nu))
        if estimator.alpha != controller.alpha:
            raise ConfigMismatch("estimator and controller alpha must match")
    elif not (pid_filter_time > 0.0 and math.isfinite(pid_filter_time)):
        raise ValueError("pid_filter_time must be positive, got %r" % (pid_filter_time,))

    t = np.arange(n) * h
    noise_col = noise.sequence(n)
    y_ref, yd_ref, ydd_ref = reference.eval_array(t)

    a1 = plant.a1
    a0 = plant.a0
    bd = plant.b * plant.delta
    kp = controller.kp
    ki = controller.ki
    kd = controller.kd
    alpha = controller.alpha if intelligent else 0.0
    nu = controller.nu
    hh = 0.5 * h
    estimating = intelligent and not use_oracle_estimator
    derivative = kind == IPD
    # backward-Euler lag stages: on the measured output for the estimate
    # (two stages), on the error for the classic PID (one)
    keep = gain = 0.0
    if estimating:
        keep, gain = filter_constants(estimator.t_filter, h)
    elif not intelligent:
        keep, gain = filter_constants(pid_filter_time, h)
    analysis = estimating and estimator.variant == ANALYSIS_FORM
    if analysis:
        ea1, ea0, eb = estimator.plant_coeffs

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

            if log:
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
        if log:
            logged.append((np.array(u_log), np.array(y_log), np.array(v_log),
                           np.array(fh_log)))
        if diverged or k == last:
            break

    if not log:
        return diverged
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
