"""Fixed-step closed-loop simulation of a second-order LTI test plant.

The plant is ydd + a1*yd + a0*y = b*delta*u with delta in [0, 1] modeling
actuator effectiveness loss. The loop runs at a fixed step with zero-order
hold on the input, RK4 integration between samples, and additive Gaussian
measurement noise on the output seen by the controller. Ground truth is
logged alongside for analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import (
    CLASSIC_PID,
    IP,
    IPD,
    IPI,
    IPID,
    ConfigMismatch,
    ControllerSpec,
    DerivatorFilter,
    EstimatorConfig,
    control_classic_pid,
    control_ip,
    control_ipd,
    control_ipi,
    control_ipid,
    estimate_f,
)

# |y_true| beyond this is treated as loop divergence; the trace is truncated
# at the first crossing sample and flagged.
BLOWUP_THRESHOLD = 1e3

# Largest sample count duration / h a run may ask for: the scalar loop logs
# ten Python floats per sample, a few hundred MB at this cap.
MAX_SAMPLES = 1_000_000

TRACE_COLUMNS = ("t", "u", "y_true", "y_measured", "y_ref", "e", "f_hat", "f_true")


class SimulationError(RuntimeError):
    """Base class for simulation failures."""


class NonFiniteState(SimulationError):
    """Integration produced NaN or Inf."""


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
class PlantState:
    y: float
    ydot: float
    t: float = 0.0


def _rk4(a1: float, a0: float, bd: float, y: float, v: float,
         u: float, h: float) -> tuple[float, float]:
    # ydot = v, vdot = bd*u - a1*v - a0*y, u held constant over the step
    fu = bd * u
    k1y = v
    k1v = fu - a1 * v - a0 * y
    y2 = y + 0.5 * h * k1y
    v2 = v + 0.5 * h * k1v
    k2y = v2
    k2v = fu - a1 * v2 - a0 * y2
    y3 = y + 0.5 * h * k2y
    v3 = v + 0.5 * h * k2v
    k3y = v3
    k3v = fu - a1 * v3 - a0 * y3
    y4 = y + h * k3y
    v4 = v + h * k3v
    k4y = v4
    k4v = fu - a1 * v4 - a0 * y4
    return (y + h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0,
            v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0)


def plant_step(plant: LtiPlant, state: PlantState, u: float, h: float) -> PlantState:
    """Advance the plant one step of size h under zero-order-hold input u."""
    if not h > 0.0:
        raise ValueError("h must be positive, got %r" % (h,))
    y, v = _rk4(plant.a1, plant.a0, plant.b * plant.delta,
                state.y, state.ydot, u, h)
    if not (math.isfinite(y) and math.isfinite(v)):
        raise NonFiniteState("state became non-finite at t=%g" % (state.t + h,))
    return PlantState(y, v, state.t + h)


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

    def eval(self, t: float) -> tuple[float, float, float]:
        """Return (y_ref, yd_ref, ydd_ref) at time t."""
        if self.kind == CONSTANT:
            return (self.level, 0.0, 0.0)
        span = self.t_end - self.t_start
        tau = (t - self.t_start) / span
        if tau <= 0.0:
            return (self.y_start, 0.0, 0.0)
        if tau >= 1.0:
            return (self.y_end, 0.0, 0.0)
        rise = self.y_end - self.y_start
        t2 = tau * tau
        t3 = t2 * tau
        # 6 tau^5 - 15 tau^4 + 10 tau^3 and its scaled derivatives
        pos = self.y_start + rise * t3 * (10.0 + tau * (-15.0 + 6.0 * tau))
        vel = rise * t2 * (30.0 + tau * (-60.0 + 30.0 * tau)) / span
        acc = rise * tau * (60.0 + tau * (-180.0 + 120.0 * tau)) / (span * span)
        return (pos, vel, acc)


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

    def column(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise KeyError(name)
        return getattr(self, name)

    def to_csv(self, path) -> None:
        """Write the pinned columns with repr floats (round-trip exact), LF endings."""
        cols = [getattr(self, name).tolist() for name in TRACE_COLUMNS]
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for row in zip(*cols):
                fh.write(",".join(repr(v) for v in row) + "\n")


def load_trace_csv(path) -> dict[str, np.ndarray]:
    """Read a trace CSV back into a column dict (inverse of to_csv)."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh if line.strip()]
    data = np.array(rows, dtype=float)
    if data.size == 0:
        data = data.reshape(0, len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


@dataclass(frozen=True)
class Metrics:
    rmse: float
    iae: float
    tail_max_abs_error: float
    diverged: bool


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
    rmse = float(np.sqrt(np.mean(e * e)))
    iae = float(np.trapezoid(np.abs(e), trace.t)) if n > 1 else 0.0
    start = min(int(math.floor(0.8 * n)), n - 1)
    tail = float(np.max(np.abs(e[start:])))
    return Metrics(rmse, iae, tail, trace.diverged)


def run_closed_loop(plant: LtiPlant, controller: ControllerSpec,
                    estimator: EstimatorConfig | None,
                    reference: ReferenceTrajectory, noise: NoiseModel,
                    h: float = 1e-3, duration: float = 20.0,
                    y0: float = 0.0, ydot0: float = 0.0,
                    use_oracle_estimator: bool = False,
                    blowup_threshold: float = BLOWUP_THRESHOLD,
                    pid_filter_time: float = 0.1,
                    meta: dict | None = None) -> SimulationTrace:
    """Simulate the sampled closed loop and log every sample.

    At each sample the controller sees only the noisy measurement; the
    lumped-term estimate may use inputs up to the previous sample only.
    The logged f_true is the exact lumped term for the controller's
    ultra-local order (0 for the classic PID, which has no such model).

    use_oracle_estimator replaces the filtered estimate with the exact
    lumped term, resolving the resulting algebraic loop in closed form;
    this is only well defined for second-order intelligent laws on a
    plant with actuator authority (delta > 0).

    A |y_true| > blowup_threshold crossing or a non-finite integration
    state truncates the trace at that sample and sets the diverged flag
    instead of raising, so sweeps can treat divergence as data.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("h must be positive, got %r" % (h,))
    if duration < 10.0 * h:
        raise ValueError("duration must cover at least ten steps")
    if not duration / h <= MAX_SAMPLES:
        raise ValueError("duration / h = %r samples, above the cap of %d"
                         % (duration / h, MAX_SAMPLES))
    kind = controller.kind
    intelligent = kind != CLASSIC_PID

    if use_oracle_estimator:
        if not intelligent or controller.nu != 2:
            raise ConfigMismatch(
                "oracle estimator mode requires a second-order intelligent law")
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

    n = int(round(duration / h)) + 1
    noise_seq = noise.sequence(n).tolist()

    a1 = plant.a1
    a0 = plant.a0
    bd = plant.b * plant.delta
    kp = controller.kp
    ki = controller.ki
    kd = controller.kd
    alpha = controller.alpha if intelligent else 0.0
    nu = controller.nu

    deriv = None
    err_filter = None
    if intelligent and not use_oracle_estimator:
        deriv = DerivatorFilter(estimator.t_filter, 2, h)
    if kind == CLASSIC_PID:
        err_filter = DerivatorFilter(pid_filter_time, 1, h)

    ref_eval = reference.eval
    t_log = []
    u_log = []
    y_log = []
    ym_log = []
    yr_log = []
    e_log = []
    fh_log = []
    ft_log = []
    yd_log = []
    ydd_log = []

    y = float(y0)
    v = float(ydot0)
    e_int = 0.0
    e_prev = 0.0
    e_int_true = 0.0
    e_prev_true = 0.0
    u_prev = 0.0
    diverged = False

    for k in range(n):
        t = k * h
        ym = y + noise_seq[k]
        ystar, ysd, ysdd = ref_eval(t)
        e = ystar - ym
        if k:
            e_int += 0.5 * h * (e_prev + e)
        e_prev = e

        if use_oracle_estimator:
            e_t = ystar - y
            ed_t = ysd - v
            if k:
                e_int_true += 0.5 * h * (e_prev_true + e_t)
            e_prev_true = e_t
            u = (ysdd + kp * e_t + ki * e_int_true + kd * ed_t
                 + a1 * v + a0 * y) / bd
            ydd = bd * u - a1 * v - a0 * y
            f_true = ydd - alpha * u
            f_hat = f_true
        elif intelligent:
            deriv.step(ym)
            d1, d2 = deriv.stage_outputs
            f_hat = estimate_f(estimator, d1, d2, ym, u_prev)
            if kind == IP:
                u = control_ip(f_hat, ysd, e, controller)
            elif kind == IPD:
                u = control_ipd(f_hat, ysdd, e, ysd - d1, controller)
            elif kind == IPI:
                u = control_ipi(f_hat, ysdd, e, e_int, controller)
            else:
                u = control_ipid(f_hat, ysdd, e, e_int, ysd - d1, controller)
            ydd = bd * u - a1 * v - a0 * y
            f_true = (v if nu == 1 else ydd) - alpha * u
        else:
            ed_f = err_filter.step(e)
            u = control_classic_pid(e, e_int, ed_f, controller)
            ydd = bd * u - a1 * v - a0 * y
            f_hat = 0.0
            f_true = 0.0

        t_log.append(t)
        u_log.append(u)
        y_log.append(y)
        ym_log.append(ym)
        yr_log.append(ystar)
        e_log.append(e)
        fh_log.append(f_hat)
        ft_log.append(f_true)
        yd_log.append(v)
        ydd_log.append(ydd)

        if abs(y) > blowup_threshold:
            diverged = True
            break
        if k == n - 1:
            break
        y, v = _rk4(a1, a0, bd, y, v, u, h)
        if not (math.isfinite(y) and math.isfinite(v)):
            diverged = True
            break
        u_prev = u

    trace_meta = {"controller": controller.describe(),
                  "sigma": noise.sigma, "seed": noise.seed,
                  "delta": plant.delta, "h": h,
                  "oracle_estimator": bool(use_oracle_estimator)}
    if estimator is not None and intelligent and not use_oracle_estimator:
        trace_meta["estimator"] = "%s(nu=%d, alpha=%g, T=%g)" % (
            estimator.variant, estimator.nu, estimator.alpha, estimator.t_filter)
    if meta:
        trace_meta.update(meta)

    return SimulationTrace(
        t=np.asarray(t_log), u=np.asarray(u_log), y_true=np.asarray(y_log),
        y_measured=np.asarray(ym_log), y_ref=np.asarray(yr_log),
        e=np.asarray(e_log), f_hat=np.asarray(fh_log), f_true=np.asarray(ft_log),
        ydot_true=np.asarray(yd_log), yddot_true=np.asarray(ydd_log),
        h=h, diverged=diverged, meta=trace_meta)
