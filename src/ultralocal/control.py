"""Lumped-term estimators and controller specifications.

The controllers act on an ultra-local input/output model: the nu-th output
derivative equals a lumped term F plus alpha times the input. F absorbs
every unmodeled effect and is re-estimated at each sample from filtered
output derivatives and the previous input, so the intelligent laws need no
plant model beyond the scalar alpha. The estimate and the laws run in
sim.run_closed_loop; replay_estimator reruns the estimate offline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class ConfigMismatch(ValueError):
    """Estimator/controller configuration is inconsistent with its use."""


DELAYED_INPUT = "delayed-input"
ANALYSIS_FORM = "analysis-form"

ESTIMATOR_VARIANTS = (DELAYED_INPUT, ANALYSIS_FORM)


@dataclass(frozen=True)
class EstimatorConfig:
    """Configuration of a lumped-term estimator.

    nu: order of the ultra-local model (1 or 2).
    alpha: input scaling (nonzero).
    t_filter: derivator filter time constant.
    variant: DELAYED_INPUT uses the previous input sample directly and
        takes no plant_coeffs; ANALYSIS_FORM substitutes the input from the
        plant equation using plant_coeffs = (a1, a0, b), which removes the
        input delay at the price of needing those three coefficients.
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
        if self.variant == DELAYED_INPUT and self.plant_coeffs is not None:
            raise ConfigMismatch("delayed-input estimator takes no plant_coeffs, got %r"
                                 % (self.plant_coeffs,))
        if self.variant == ANALYSIS_FORM:
            if self.plant_coeffs is None or len(self.plant_coeffs) != 3:
                raise ConfigMismatch("analysis-form estimator needs plant_coeffs=(a1, a0, b)")
            for name, value in zip(("a1", "a0", "b"), self.plant_coeffs):
                if not math.isfinite(value):
                    raise ConfigMismatch("plant_coeffs %s must be finite, got %r" % (name, value))
            if self.plant_coeffs[2] == 0.0:
                raise ConfigMismatch("analysis-form estimator needs nonzero input gain b")


def filter_constants(t_lag: float, h: float) -> tuple:
    """(keep, gain) of one backward-Euler lag stage with time constant t_lag
    at step h: each sample, state <- keep*state + gain*d, where d is the
    backward difference of the stage's input over h.
    """
    return t_lag / (t_lag + h), h / (t_lag + h)


def _lag(keep: float, drive: np.ndarray) -> np.ndarray:
    """One backward-Euler lag stage: s[0] = 0.0, s[k] = keep*s[k-1] + drive[k-1].

    The recursion is the only per-sample Python of a replay, which
    _lag_stages runs once per (output column, T, h); an empty drive gives
    the one primed sample.
    """
    out = [0.0]
    log = out.append
    s = 0.0
    for g in drive.tolist():
        s = keep * s + g
        log(s)
    return np.array(out)


@functools.lru_cache(maxsize=1)
def _lag_stages(y_bytes: bytes, t_filter: float, h: float) -> tuple:
    """The filtered derivatives (d1, d2) of a float64 output column given
    as its bytes, read-only.

    They depend on nothing else, so the replays of one column through
    several estimators share them: the last column's are kept. The key is
    the column's bytes, not its values, so 0.0 and -0.0 (or two NaN
    payloads) never share an entry, and a column changed in place is
    recomputed.
    """
    y = np.frombuffer(y_bytes)
    keep, gain = filter_constants(t_filter, h)
    # sim.run_closed_loop's filter statements: change both
    with np.errstate(all="ignore"):
        d1 = _lag(keep, gain * (np.diff(y) / h))
        d2 = _lag(keep, gain * (np.diff(d1) / h))
    d1.flags.writeable = False
    d2.flags.writeable = False
    return d1, d2


def replay_estimator(cfg: EstimatorConfig, y_measured, u, h: float) -> np.ndarray:
    """Run an estimator offline over recorded output/input columns.

    The arithmetic is sim.run_closed_loop's estimate, operation for
    operation: two backward-Euler lag stages on the measured output give
    the filtered derivatives d1 and d2 (sample 0 only primes their
    memories and leaves both 0.0), and the estimate is d_nu - alpha*u_prev
    (delayed-input) or d_nu - alpha*(d2 + a1*d1 + a0*y)/b (analysis-form).
    Each stage's drive gain*(backward difference / h) and the estimate are
    numpy elementwise operations, which round as the loop's float
    statements do, so replaying a logged trace reproduces its f_hat column
    bit for bit. The stages depend only on the output column, T and h, so
    replays of one column at one T and h (other alphas or variants) run
    them once (_lag_stages). The input column is shifted by one sample
    (u_prev[0] = 0), matching the in-loop convention that the estimate at
    sample k may only use inputs up to k-1.
    """
    y = np.asarray(y_measured, dtype=float)
    uu = np.asarray(u, dtype=float)
    if y.shape != uu.shape or y.ndim != 1:
        raise ValueError("y_measured and u must be 1-D arrays of equal length")
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("h must be positive, got %r" % (h,))
    if y.shape[0] == 0:
        return np.empty(0)
    d1, d2 = _lag_stages(y.tobytes(), float(cfg.t_filter), float(h))
    # sim.run_closed_loop's f_hat statement: change both
    with np.errstate(all="ignore"):
        if cfg.variant == ANALYSIS_FORM:
            ea1, ea0, eb = cfg.plant_coeffs
            u_sub = (d2 + ea1 * d1 + ea0 * y) / eb
        else:
            u_sub = np.concatenate(([0.0], uu[:-1]))
        return (d1 if cfg.nu == 1 else d2) - cfg.alpha * u_sub


IP = "ip"
IPD = "ipd"
CLASSIC_PID = "pid"

_INTELLIGENT_KINDS = (IP, IPD)
_ALL_KINDS = _INTELLIGENT_KINDS + (CLASSIC_PID,)


@dataclass(frozen=True)
class ControllerSpec:
    """Gains and kind of a controller; immutable value object.

    The intelligent kinds, ip and ipd, require a nonzero alpha and act
    through the ultra-local model; kind "pid" is the classic output-feedback
    PID and ignores alpha. A gain the kind has no term for (ki on ip and
    ipd, kd on ip) must be left at +0.0.
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
            for name in ("ki",) if self.kind == IPD else ("ki", "kd"):
                v = getattr(self, name)
                if v != 0.0 or math.copysign(1.0, v) < 0.0:
                    raise ConfigMismatch("%s controllers ignore %s, which must be +0.0, got %r"
                                         % (self.kind, name, v))

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
    def ipd(cls, kp: float, kd: float, alpha: float) -> "ControllerSpec":
        return cls(IPD, kp=kp, kd=kd, alpha=alpha)

    @classmethod
    def classic_pid(cls, kp: float, ki: float, kd: float) -> "ControllerSpec":
        return cls(CLASSIC_PID, kp=kp, ki=ki, kd=kd)

    def describe(self) -> str:
        if self.kind == CLASSIC_PID:
            return "pid(kp=%g, ki=%g, kd=%g)" % (self.kp, self.ki, self.kd)
        return "%s(kp=%g, ki=%g, kd=%g, alpha=%g)" % (
            self.kind, self.kp, self.ki, self.kd, self.alpha)
