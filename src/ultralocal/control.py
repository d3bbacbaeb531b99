"""Derivative filters, lumped-term estimators, and control laws.

The controllers act on an ultra-local input/output model: the nu-th output
derivative equals a lumped term F plus alpha times the input. F absorbs
every unmodeled effect and is re-estimated at each sample from filtered
output derivatives and the previous input, so the laws below need no plant
model beyond the scalar alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConfigMismatch(ValueError):
    """Estimator/controller configuration is inconsistent with its use."""


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


DELAYED_INPUT = "delayed-input"
ANALYSIS_FORM = "analysis-form"

ESTIMATOR_VARIANTS = (DELAYED_INPUT, ANALYSIS_FORM)


@dataclass(frozen=True)
class EstimatorConfig:
    """Configuration of a lumped-term estimator.

    nu: order of the ultra-local model (1 or 2).
    alpha: input scaling (nonzero).
    t_filter: derivator filter time constant.
    variant: DELAYED_INPUT uses the previous input sample directly;
        ANALYSIS_FORM substitutes the input from the plant equation using
        plant_coeffs = (a1, a0, b), which removes the input delay at the
        price of needing those three coefficients.
    """

    nu: int
    alpha: float
    t_filter: float
    variant: str = DELAYED_INPUT
    plant_coeffs: tuple | None = None

    def __post_init__(self):
        if self.nu not in (1, 2):
            raise ConfigMismatch("nu must be 1 or 2, got %r" % (self.nu,))
        if not (math.isfinite(self.alpha) and self.alpha != 0.0):
            raise ConfigMismatch("alpha must be finite and nonzero, got %r" % (self.alpha,))
        if not (math.isfinite(self.t_filter) and self.t_filter > 0.0):
            raise ConfigMismatch("t_filter must be positive, got %r" % (self.t_filter,))
        if self.variant not in ESTIMATOR_VARIANTS:
            raise ConfigMismatch("unknown estimator variant %r" % (self.variant,))
        if self.variant == ANALYSIS_FORM:
            if self.plant_coeffs is None or len(self.plant_coeffs) != 3:
                raise ConfigMismatch("analysis-form estimator needs plant_coeffs=(a1, a0, b)")
            if self.plant_coeffs[2] == 0.0:
                raise ConfigMismatch("analysis-form estimator needs nonzero input gain b")


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


def replay_estimator(cfg: EstimatorConfig, y_measured, u, h: float) -> np.ndarray:
    """Run an estimator offline over recorded output/input columns.

    Performs the float operations of the closed loop's estimate, in its
    order (DerivatorFilter and estimate_f here, their inlined form in
    sim.run_closed_loop), so replaying a logged trace reproduces its
    f_hat column bit for bit. The input column is shifted by one sample
    (u_prev[0] = 0), matching the in-loop convention that the estimate at
    sample k may only use inputs up to k-1.
    """
    y = np.asarray(y_measured, dtype=float)
    uu = np.asarray(u, dtype=float)
    if y.shape != uu.shape or y.ndim != 1:
        raise ValueError("y_measured and u must be 1-D arrays of equal length")
    deriv = DerivatorFilter(cfg.t_filter, 2, h)
    out = np.empty(y.shape[0])
    u_prev = 0.0
    for k in range(y.shape[0]):
        deriv.step(y[k])
        d1, d2 = deriv.stage_outputs
        out[k] = estimate_f(cfg, d1, d2, y[k], u_prev)
        u_prev = uu[k]
    return out


IP = "ip"
IPI = "ipi"
IPD = "ipd"
IPID = "ipid"
CLASSIC_PID = "pid"

_INTELLIGENT_KINDS = (IP, IPI, IPD, IPID)
_ALL_KINDS = _INTELLIGENT_KINDS + (CLASSIC_PID,)


@dataclass(frozen=True)
class ControllerSpec:
    """Gains and kind of a controller; immutable value object.

    Intelligent kinds (ip, ipi, ipd, ipid) require a nonzero alpha and act
    through the ultra-local model; kind "pid" is the classic output-feedback
    PID and ignores alpha.
    """

    kind: str
    kp: float
    ki: float = 0.0
    kd: float = 0.0
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ConfigMismatch("unknown controller kind %r" % (self.kind,))
        for name in ("kp", "ki", "kd"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigMismatch("%s must be finite, got %r" % (name, v))
        if self.kind in _INTELLIGENT_KINDS:
            if self.alpha is None or not math.isfinite(self.alpha) or self.alpha == 0.0:
                raise ConfigMismatch("intelligent controllers need nonzero alpha")

    @property
    def nu(self):
        """Ultra-local model order used by this controller (None for pid)."""
        if self.kind == CLASSIC_PID:
            return None
        return 1 if self.kind == IP else 2

    @classmethod
    def ip(cls, kp: float, alpha: float) -> "ControllerSpec":
        return cls(IP, kp=kp, alpha=alpha)

    @classmethod
    def ipi(cls, kp: float, ki: float, alpha: float) -> "ControllerSpec":
        return cls(IPI, kp=kp, ki=ki, alpha=alpha)

    @classmethod
    def ipd(cls, kp: float, kd: float, alpha: float) -> "ControllerSpec":
        return cls(IPD, kp=kp, kd=kd, alpha=alpha)

    @classmethod
    def ipid(cls, kp: float, ki: float, kd: float, alpha: float) -> "ControllerSpec":
        return cls(IPID, kp=kp, ki=ki, kd=kd, alpha=alpha)

    @classmethod
    def classic_pid(cls, kp: float, ki: float, kd: float) -> "ControllerSpec":
        return cls(CLASSIC_PID, kp=kp, ki=ki, kd=kd)

    def describe(self) -> str:
        if self.kind == CLASSIC_PID:
            return "pid(kp=%g, ki=%g, kd=%g)" % (self.kp, self.ki, self.kd)
        return "%s(kp=%g, ki=%g, kd=%g, alpha=%g)" % (
            self.kind, self.kp, self.ki, self.kd, self.alpha)


def control_intelligent(f_hat: float, ref_deriv: float, e: float, e_int: float,
                        e_dot: float, spec: ControllerSpec) -> float:
    """The intelligent law u = -(F - y*^(nu) - kp*e - ki*int(e) - kd*e_dot) / alpha.

    iP, iPI, iPD and iPID differ only in nu and in which gains are zero:
    ref_deriv is the reference derivative of order spec.nu, and a kind
    without an integral or derivative term passes 0.0 for it. With exact
    F the iPD error obeys edd + kd*ed + kp*e = 0.
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
