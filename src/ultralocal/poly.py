"""Polynomials in the Laplace variable s, Routh-Hurwitz classification,
and pole-placement gain solvers.

Coefficients are stored in ascending order: coeffs[k] multiplies s**k.
Everything here is exact rational arithmetic on floats; the only numerics
beyond that is the companion-matrix root solver used as an independent
cross-check.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

# Analysis in this package never needs more than a quartic; the cap leaves
# headroom for randomized testing without pretending to be a CAS.
MAX_DEGREE = 12

# |c_k| <= TRIM_REL_TOL * max|c_j| counts as zero when fixing the degree,
# so float dust cannot silently change a polynomial's degree.
TRIM_REL_TOL = 1e-12

# Relative threshold for "this table entry is zero" inside the Routh table.
ROUTH_ZERO_REL_TOL = 1e-12

# Scale factor for the epsilon substituted for a lone zero first-column entry.
ROUTH_EPS_REL = 1e-9


class PolynomialError(ValueError):
    """Base class for polynomial and gain-solver errors."""


class ZeroPolynomial(PolynomialError):
    """The zero polynomial has no degree and cannot be classified."""


class DegreeZero(PolynomialError):
    """Nonzero constants have no roots to classify."""


class NotMonic(PolynomialError):
    """Pole-placement targets must have leading coefficient 1."""


class WrongDegree(PolynomialError):
    """Pole-placement target has the wrong degree for the requested gains."""


class ZeroInputGain(PolynomialError):
    """The plant input gain is zero, so no gains can realize the target."""


class InvalidParams(PolynomialError):
    """Pole-placement parameters outside their admissible range."""


class ConvergenceFailure(RuntimeError):
    """The eigenvalue root solver did not converge.

    Carries a diagnostics dict (degree, coefficients, underlying error).
    """

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


class Polynomial:
    """Real univariate polynomial with ascending coefficients.

    Immutable after construction. Trailing coefficients that are zero
    relative to the largest magnitude are trimmed; the zero polynomial is
    represented as (0.0,).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [float(c) for c in coeffs]
        if not cs:
            raise ZeroPolynomial("empty coefficient sequence")
        for c in cs:
            if not math.isfinite(c):
                raise PolynomialError("non-finite coefficient %r" % c)
        scale = max(abs(c) for c in cs)
        if scale == 0.0:
            cs = [0.0]
        else:
            tol = TRIM_REL_TOL * scale
            while len(cs) > 1 and abs(cs[-1]) <= tol:
                cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    @property
    def leading(self) -> float:
        return self.coeffs[-1]

    def __repr__(self):
        return "Polynomial(%s)" % (list(self.coeffs),)


class StabilityKind(enum.Enum):
    HURWITZ = "hurwitz"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a Routh-Hurwitz classification.

    right_half_plane_count is the number of first-column sign changes,
    i.e. the number of roots with positive real part. degenerate records
    that a zero first-column entry or a zero row was patched while
    building the table; a degenerate table with no sign changes means
    roots touch the imaginary axis, reported as MARGINAL.
    """

    kind: StabilityKind
    right_half_plane_count: int = 0
    degenerate: bool = False

    @property
    def is_hurwitz(self) -> bool:
        return self.kind is StabilityKind.HURWITZ


def routh_hurwitz(p: Polynomial) -> StabilityVerdict:
    """Classify the roots of p by the Routh-Hurwitz table.

    Policies for the classical degenerate cases, chosen so that every
    polynomial gets a deterministic verdict:

    - lone zero in the first column: replaced by a small positive epsilon
      proportional to the largest table entry seen so far;
    - an all-zero row: replaced by the derivative of the auxiliary
      polynomial formed from the row above.

    Both mark the verdict degenerate; a degenerate table with zero sign
    changes is reported MARGINAL rather than HURWITZ. A table entry that
    overflows, or is nan, raises PolynomialError: no verdict is read from
    it.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot classify the zero polynomial")
    n = p.degree
    if n == 0:
        raise DegreeZero("constant polynomial has no roots")
    if n > MAX_DEGREE:
        raise PolynomialError("degree %d exceeds supported maximum %d" % (n, MAX_DEGREE))

    desc = list(reversed(p.coeffs))
    if desc[0] < 0.0:
        desc = [-c for c in desc]

    width = n // 2 + 1
    row0 = desc[0::2] + [0.0] * (width - len(desc[0::2]))
    row1 = desc[1::2] + [0.0] * (width - len(desc[1::2]))

    coeff_scale = max(abs(c) for c in desc)
    table_max = coeff_scale
    zero_tol = ROUTH_ZERO_REL_TOL * coeff_scale

    first_col = [row0[0]]
    degenerate = False
    above = row0
    row = row1
    power = n - 1  # s-power represented by `row`

    while power >= 0:
        if all(abs(x) <= zero_tol for x in row):
            # Zero row: differentiate the auxiliary polynomial built from
            # the row above, A(s) = sum_j above[j] * s**(power + 1 - 2j).
            m = power + 1
            row = [(m - 2 * j) * above[j] if m - 2 * j > 0 else 0.0
                   for j in range(width)]
            degenerate = True
        # an overflowed entry would pass the lone-zero test below (inf <= inf)
        if not all(map(math.isfinite, row)):
            raise PolynomialError("Routh table row s^%d is not finite: %r" % (power, row))
        if abs(row[0]) <= ROUTH_ZERO_REL_TOL * max(abs(x) for x in row):
            row = list(row)
            row[0] = ROUTH_EPS_REL * table_max
            degenerate = True
        first_col.append(row[0])
        table_max = max(table_max, max(abs(x) for x in row))
        if power == 0:
            break
        pivot = row[0]
        lead = above[0]
        nxt = [above[j + 1] - lead * row[j + 1] / pivot for j in range(width - 1)]
        nxt.append(0.0)
        above = row
        row = nxt
        power -= 1

    changes = 0
    prev_positive = first_col[0] > 0.0
    for x in first_col[1:]:
        positive = x > 0.0
        if positive != prev_positive:
            changes += 1
            prev_positive = positive

    if changes > 0:
        return StabilityVerdict(StabilityKind.UNSTABLE, changes, degenerate)
    if degenerate:
        return StabilityVerdict(StabilityKind.MARGINAL, 0, True)
    return StabilityVerdict(StabilityKind.HURWITZ, 0, False)


def routh_block(coeffs):
    """routh_hurwitz over numpy arrays, one polynomial per element.

    coeffs is a sequence of ascending coefficients, arrays or floats that
    broadcast together. Returns boolean arrays (unstable, degenerate,
    flagged) of their shape; where flagged is False, they say whether
    routh_hurwitz's verdict is UNSTABLE and whether it is degenerate.

    The table is routh_hurwitz's, with its float operations in its order,
    less the entries known to be zero. Each of its rules runs per element,
    behind one test over the whole block: a leading coefficient Polynomial
    would trim is dropped, a negative one negates the polynomial, a zero
    row becomes the derivative of the row above's auxiliary polynomial,
    and a lone zero first-column entry ROUTH_EPS_REL times the largest
    entry so far. Flagged are the elements with a non-finite coefficient
    or table entry, and constants, which routh_hurwitz rejects.
    """
    mags = [np.abs(c) for c in coeffs]
    scale = functools.reduce(np.maximum, mags)
    shape = np.shape(scale)
    if len(coeffs) == 1:
        return np.zeros(shape, bool), np.zeros(shape, bool), np.ones(shape, bool)
    trimmed = mags[-1] <= TRIM_REL_TOL * scale
    if np.count_nonzero(trimmed):
        trimmed &= np.isfinite(scale)  # an infinite coefficient stays, to be flagged
        if np.count_nonzero(trimmed):
            out = np.empty((3,) + shape, bool)
            for part, cs in ((trimmed, coeffs[:-1]), (~trimmed, coeffs)):
                out[:, part] = routh_block([np.broadcast_to(c, shape)[part] for c in cs])
            return tuple(out)
    negative = np.less(coeffs[-1], 0.0)
    if np.count_nonzero(negative):
        coeffs = [np.where(negative, -c, c) for c in coeffs]

    zero_tol = ROUTH_ZERO_REL_TOL * scale
    # a coefficient's magnitude is known, and at most scale
    known = {id(c): m for c, m in zip(coeffs, mags)}

    def magnitude(x):
        return known[id(x)] if id(x) in known else np.abs(x)

    desc = coeffs[::-1]
    above, row = desc[0::2], desc[1::2]
    done = []  # the rows below the first, as patched
    degenerate = np.zeros(shape, bool)
    for power in range(len(coeffs) - 2, -1, -1):
        # a zero row needs |row[0]| <= zero_tol, a lone zero |row[0]| <=
        # ROUTH_ZERO_REL_TOL * |row[j]|, j >= 1, which a coefficient row[j] caps
        small = magnitude(row[0]) <= functools.reduce(
            np.maximum, [ROUTH_ZERO_REL_TOL * np.abs(x) for x in row[1:] if id(x) not in known],
            zero_tol)
        if np.count_nonzero(small):
            zero_row = functools.reduce(operator.and_,
                                        [magnitude(x) <= zero_tol for x in row[1:]], small)
            if np.count_nonzero(zero_row):
                # d/ds of A(s) = sum_j above[j] * s**(power + 1 - 2j)
                row = [np.where(zero_row, (power + 1 - 2 * j) * above[j], x)
                       for j, x in enumerate(row)]
                degenerate |= zero_row
            # a zero that is alone in its row needs a second entry; the test
            # is only for small elements with a finite row[0], as an
            # infinite one passes it (a derivative row's can overflow)
            if len(row) > 1:
                mag = [magnitude(x) for x in row]
                lone = small & (mag[0] <= ROUTH_ZERO_REL_TOL * functools.reduce(np.maximum, mag))
                lone &= np.isfinite(mag[0])
                if np.count_nonzero(lone):
                    table_max = functools.reduce(
                        np.maximum, [magnitude(x) for r in done for x in r], scale)
                    row = [np.where(lone, ROUTH_EPS_REL * table_max, row[0]), *row[1:]]
                    degenerate |= lone
        done.append(row)
        if power == 0:
            break
        # np.divide: a float pivot of 0.0 (left so beside a nan) gives nan, not ZeroDivisionError
        pivot, lead = row[0], above[0]
        above, row = row, [above[j + 1] - np.divide(lead * row[j + 1], pivot) if j + 1 < len(row)
                           else above[j + 1] for j in range(len(above) - 1)]

    # first[0] > 0, so a sign change is a first-column entry <= 0; a
    # non-finite coefficient makes scale non-finite
    first = [desc[0], *(r[0] for r in done)]
    low = functools.reduce(np.minimum, first)
    high = functools.reduce(np.maximum, [x for x in first if id(x) not in known], scale)
    return low <= 0.0, degenerate, ~(np.isfinite(low) & np.isfinite(high))


def expand_pole(r: float, multiplicity: int) -> Polynomial:
    """Expand (s + r)**multiplicity into ascending coefficients.

    Raises InvalidParams when a coefficient overflows a float or is nan.
    """
    m = int(multiplicity)
    if m != multiplicity or m < 1:
        raise InvalidParams("multiplicity must be an integer >= 1, got %r" % (multiplicity,))
    try:
        coeffs = [float(math.comb(m, k) * r ** (m - k)) for k in range(m + 1)]
    except OverflowError:
        coeffs = [math.inf]
    if not all(map(math.isfinite, coeffs)):
        raise InvalidParams("(s + %r)**%d: a coefficient overflows a float or is not finite"
                            % (r, m))
    return Polynomial(coeffs)


def _require_monic(target: Polynomial, degree: int, what: str) -> None:
    if target.degree != degree:
        raise WrongDegree("%s target must have degree %d, got %d"
                          % (what, degree, target.degree))
    if abs(target.leading - 1.0) > 1e-12:
        raise NotMonic("%s target must be monic, leading coefficient %r"
                       % (what, target.leading))


def ipd_gains_from_target(target: Polynomial) -> tuple[float, float]:
    """Gains (kp, kd) giving the iPD error dynamics s^2 + kd*s + kp = target.

    With a perfect lumped-term estimate the iPD tracking error obeys
    edd + kd*ed + kp*e = 0, so the gains are read off the target directly.
    """
    _require_monic(target, 2, "iPD")
    return (target.coeffs[0], target.coeffs[1])


def pid_gains_from_target(plant, target: Polynomial) -> tuple[float, float, float]:
    """Classic PID gains placing the nominal closed-loop poles at target.

    plant provides (a1, a0, b) for ydd + a1*yd + a0*y = b*u; the loop
    polynomial with an ideal-derivative PID is
    s^3 + (a1 + b*kd)*s^2 + (a0 + b*kp)*s + b*ki.
    Tuning is done at full actuator effectiveness regardless of plant.delta.
    Returns (kp, ki, kd).
    """
    _require_monic(target, 3, "PID")
    b = plant.b
    if b == 0.0:
        raise ZeroInputGain("plant input gain b is zero; target unreachable")
    t0, t1, t2 = target.coeffs[0], target.coeffs[1], target.coeffs[2]
    kd = (t2 - plant.a1) / b
    kp = (t1 - plant.a0) / b
    ki = t0 / b
    return (kp, ki, kd)


def max_real_part_of_roots(p: Polynomial) -> float:
    """Largest real part among the roots of p.

    Roots come from companion-matrix eigenvalues (numpy/LAPACK), accurate
    to far better than the 1e-6 margins used by the stability checks for
    the degrees handled here. Raises ConvergenceFailure with diagnostics
    if the eigenvalue iteration does not converge.
    """
    if p.is_zero:
        raise ZeroPolynomial("zero polynomial has no roots")
    if p.degree == 0:
        raise DegreeZero("constant polynomial has no roots")
    try:
        roots = np.roots(list(reversed(p.coeffs)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            "root solver failed for degree %d" % p.degree,
            {"degree": p.degree, "coeffs": p.coeffs, "error": str(exc)},
        ) from exc
    return float(np.max(roots.real))
