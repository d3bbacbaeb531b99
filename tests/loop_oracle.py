"""Reference closed loop and trace writer that ultralocal.sim is tested against.

A frozen copy of the sample-by-sample loop the package used to run: one
DerivatorFilter object per derivative, estimate_f and the control laws
called at every sample, the reference evaluated one time instant at a
time, and ten Python lists logged per sample. _rk4, DerivatorFilter,
estimate_f, control_intelligent and control_classic_pid are verbatim
copies of the per-sample building blocks the package used to have; the
package now writes their arithmetic inline in sim.run_closed_loop, and
the estimate once more in numpy form in control.replay_estimator. All
of this is slow and is kept only as the oracle: the package loop must
reproduce every logged column of it bit for bit. Do not edit its
arithmetic.
"""

import math

import numpy as np

from ultralocal.control import (
    _INTELLIGENT_KINDS,
    CLASSIC_PID,
    DELAYED_INPUT,
    IP,
    ConfigMismatch,
    ControllerSpec,
    EstimatorConfig,
)
from ultralocal.sim import (
    BLOWUP_THRESHOLD,
    CONSTANT,
    MAX_SAMPLES,
    TRACE_COLUMNS,
    SimulationTrace,
)


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


class DerivatorFilter:
    """Causal filtered differentiator.

    order=1 realizes s/(T s + 1); order=2 realizes s^2/(T s + 1)^2 as a
    cascade of two identical first-order stages. Each stage is a backward
    difference followed by a backward-Euler low-pass, which is stable for
    any step size. The first sample only primes the difference memory, so
    startup produces 0 instead of an O(1/h) spike.
    """

    __slots__ = ("t_filter", "order", "h", "_keep", "_gain", "_prev", "_state",
                 "stage_outputs")

    def __init__(self, t_filter: float, order: int, h: float):
        if not (t_filter > 0.0 and math.isfinite(t_filter)):
            raise ValueError("t_filter must be positive, got %r" % (t_filter,))
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2, got %r" % (order,))
        if not (h > 0.0 and math.isfinite(h)):
            raise ValueError("h must be positive, got %r" % (h,))
        self.t_filter = float(t_filter)
        self.order = int(order)
        self.h = float(h)
        # backward-Euler lag: state <- (T*state + h*d) / (T + h)
        self._keep = t_filter / (t_filter + h)
        self._gain = h / (t_filter + h)
        self.reset()

    def reset(self) -> None:
        self._prev = [None] * self.order
        self._state = [0.0] * self.order
        self.stage_outputs = (0.0,) * self.order

    def step(self, sample: float) -> float:
        """Advance one sample; returns the order-th filtered derivative.

        stage_outputs then holds every stage, so an order-2 filter also
        provides the first filtered derivative without a second pass.
        """
        x = float(sample)
        h = self.h
        outs = []
        for i in range(self.order):
            prev = self._prev[i]
            d = 0.0 if prev is None else (x - prev) / h
            self._prev[i] = x
            s = self._keep * self._state[i] + self._gain * d
            self._state[i] = s
            outs.append(s)
            x = s
        self.stage_outputs = tuple(outs)
        return outs[-1]


def estimate_f(cfg: EstimatorConfig, d1: float, d2: float,
               y_measured: float, u_prev: float) -> float:
    """Current lumped-term estimate from filtered derivatives of the output.

    d1 and d2 are the first and second filtered-derivative estimates of the
    measured output (d2 is ignored for nu=1 delayed-input estimation).
    """
    dny = d1 if cfg.nu == 1 else d2
    if cfg.variant == DELAYED_INPUT:
        return dny - cfg.alpha * u_prev
    a1, a0, b = cfg.plant_coeffs
    # substitute u from the plant equation ydd + a1*yd + a0*y = b*u
    u_sub = (d2 + a1 * d1 + a0 * y_measured) / b
    return dny - cfg.alpha * u_sub


def control_intelligent(f_hat: float, ref_deriv: float, e: float, e_int: float,
                        e_dot: float, spec: ControllerSpec) -> float:
    """The intelligent law u = -(F - y*^(nu) - kp*e - ki*int(e) - kd*e_dot) / alpha.

    iP and iPD differ only in nu and in which gains are zero: ref_deriv is
    the reference derivative of order spec.nu, and a term the kind does not
    have (the integral of both, the derivative of the iP) is passed as 0.0,
    its gain being +0.0. With exact F the iPD error obeys
    edd + kd*ed + kp*e = 0.
    """
    if spec.kind not in _INTELLIGENT_KINDS:
        raise ConfigMismatch("expected an intelligent controller, got %r" % (spec.kind,))
    # cancel the estimated lumped term, then impose the target error dynamics
    return -(f_hat - ref_deriv - spec.kp * e - spec.ki * e_int
             - spec.kd * e_dot) / spec.alpha


def control_classic_pid(e: float, e_int: float, e_dot_filtered: float,
                        spec: ControllerSpec) -> float:
    """Classic PID on the tracking error; derivative term must be pre-filtered."""
    if spec.kind != CLASSIC_PID:
        raise ConfigMismatch("expected %r controller, got %r" % (CLASSIC_PID, spec.kind))
    return spec.kp * e + spec.ki * e_int + spec.kd * e_dot_filtered


def reference_eval(reference, t):
    """Scalar (y_ref, yd_ref, ydd_ref) of a ReferenceTrajectory at time t."""
    if reference.kind == CONSTANT:
        return (reference.level, 0.0, 0.0)
    span = reference.t_end - reference.t_start
    tau = (t - reference.t_start) / span
    if tau <= 0.0:
        return (reference.y_start, 0.0, 0.0)
    if tau >= 1.0:
        return (reference.y_end, 0.0, 0.0)
    rise = reference.y_end - reference.y_start
    t2 = tau * tau
    t3 = t2 * tau
    pos = reference.y_start + rise * t3 * (10.0 + tau * (-15.0 + 6.0 * tau))
    vel = rise * t2 * (30.0 + tau * (-60.0 + 30.0 * tau)) / span
    acc = rise * tau * (60.0 + tau * (-180.0 + 120.0 * tau)) / (span * span)
    return (pos, vel, acc)


def run_closed_loop_reference(plant, controller, estimator, reference, noise,
                              h=1e-3, duration=20.0, y0=0.0, ydot0=0.0,
                              use_oracle_estimator=False,
                              pid_filter_time=0.1, meta=None):
    """Same signature and result as ultralocal.sim.run_closed_loop."""
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
    kd = controller.kd
    alpha = controller.alpha if intelligent else 0.0
    nu = controller.nu

    deriv = None
    err_filter = None
    if intelligent and not use_oracle_estimator:
        deriv = DerivatorFilter(estimator.t_filter, 2, h)
    if kind == CLASSIC_PID:
        err_filter = DerivatorFilter(pid_filter_time, 1, h)

    def ref_eval(t):
        return reference_eval(reference, t)

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
            # the iPD, whose ki is +0.0: no integral term
            e_t = ystar - y
            ed_t = ysd - v
            u = (ysdd + kp * e_t + kd * ed_t + a1 * v + a0 * y) / bd
            ydd = bd * u - a1 * v - a0 * y
            f_true = ydd - alpha * u
            f_hat = f_true
        elif intelligent:
            deriv.step(ym)
            d1, d2 = deriv.stage_outputs
            f_hat = estimate_f(estimator, d1, d2, ym, u_prev)
            if kind == IP:
                u = control_intelligent(f_hat, ysd, e, 0.0, 0.0, controller)
            else:
                u = control_intelligent(f_hat, ysdd, e, 0.0, ysd - d1, controller)
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

        if abs(y) > BLOWUP_THRESHOLD:
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


def to_csv_reference(trace, path):
    """Trace CSV written one row at a time, as SimulationTrace.to_csv did."""
    cols = [getattr(trace, name).tolist() for name in TRACE_COLUMNS]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(v) for v in row) + "\n")
