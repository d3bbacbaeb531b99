"""Stability maps of the filtered intelligent-proportional loop.

Sweeps a (kp, alpha) grid, classifying each cell through the Routh table
of the loop's quartic characteristic polynomial, either at one filter
time constant or aggregated over a whole axis of them. A cross-validation
routine replays sampled cells as actual time-domain simulations so the
algebraic verdicts and the loop behavior can be compared on equal terms;
it reads the runs' diverged flags off the sampled loops' step matrices
(sim.regulation_diverged).

The quartic's coefficients are built here (_ip_coeffs), for the vector
sweep, the scalar cell_verdict, the root oracle quartic_max_real_root and
GridSpec's overflow check alike. The sweep computes the quartic's Routh
first column as numpy arrays, with routh_hurwitz's float operations in
their order, so every cell it decides gets the verdict the scalar table
gives. Four degenerate tables it decides in closed form, as the scalar
does: a zero c0 (the whole kp = 0 row), a lone zero c3 (every cell at
T = 2), a zero s^3 row (c3 = c1 = 0: the kp = 0.25 row at T = 2) and a
lone zero b1 (in that row, at alpha = 0.5).
Wherever another branch of the scalar table could fire (a trimmed
leading coefficient, another zero row or pivot, a non-finite entry) the
cell is flagged and classified by the scalar cell_verdict instead,
which stays the reference the vector path is tested against.

export_grid writes a grid's CSV from a table of bytes per grid, each
alpha's row tail for each verdict code, picking every cell's tail with
one numpy index; it writes in binary, a block of whole kp rows at a
time.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .control import ControllerSpec, EstimatorConfig, ANALYSIS_FORM
from .poly import (
    ROUTH_EPS_REL,
    ROUTH_ZERO_REL_TOL,
    TRIM_REL_TOL,
    Polynomial,
    StabilityKind,
    max_real_part_of_roots,
    routh_hurwitz,
)
from .sim import example_plant, regulation_diverged

# |alpha| below this is excluded from sweeps: the control law divides by alpha.
ALPHA_EXCLUSION = 1e-9

# Largest kp count x alpha count a grid may have: 100 times the default
# 201x201 map. The sweep's codes take 1 byte per cell, and the verdict
# lists, built on first use, about 8.
MAX_GRID_CELLS = 4_000_000

# The default kp and alpha axis of a map: [-5, 5] in 201 points.
DEFAULT_AXIS = (-5.0, 5.0, 201)

# Cells per block of the vector sweep (rounded down to whole kp rows, at
# least one, at the first T) and per write of export_grid (whole kp rows,
# at least one), so their temporaries stay small whatever the grid size.
_BLOCK_CELLS = 4096

VERDICT_STABLE = "stable"
VERDICT_UNSTABLE = "unstable"
VERDICT_MARGINAL = "marginal"
VERDICT_EXCLUDED = "excluded"

FIXED_T = "fixed-t"
FOR_ALL_T = "for-all-t"


class InvalidGrid(ValueError):
    """Grid axes or aggregation parameters are unusable."""


class FilterConstantOverflow(InvalidGrid):
    """A filter constant t of the axis overflows the quartic's T-only
    coefficients, whatever the cell."""

    def __init__(self, t: float):
        self.t = t
        self.reason = "T = %r overflows the quartic's coefficients 2T - T^2 and T^2" % (t,)
        super().__init__("t_axis: " + self.reason)


def _ip_coeffs(a, kp, t):
    """Ascending coefficients of the filtered iP quartic of map cell
    (kp, alpha = a) at filter constant t; degree 4, leading t**2.

    The iP loop (order 1, analysis form) runs on the plant ydd = yd + u
    with derivator filters of time constant t; ip_loop_for_cell gives
    the gain convention. Takes floats or broadcastable numpy arrays; the
    vector sweep relies on both paths performing the same float
    operations in the same order.
    """
    return (
        -kp / a,
        1.0 / a - 2.0 * t * kp / a,
        -2.0 * t + t * (1.0 + 1.0 / a) - t * t * kp / a,
        2.0 * t - t * t,
        t * t,
    )


@dataclass(frozen=True)
class GridSpec:
    """Axes and aggregation mode of a stability sweep.

    kp_axis and alpha_axis are (min, max, count) inclusive linear axes.
    t_axis lists the filter time constants considered. With FIXED_T the
    verdict uses t_axis[t_index] alone; with FOR_ALL_T a cell is stable
    only if it is Hurwitz at every t in the axis, unstable if any t makes
    it unstable, marginal otherwise.
    """

    kp_axis: tuple
    alpha_axis: tuple
    t_axis: tuple
    aggregation: str = FIXED_T
    t_index: int = 0

    def __post_init__(self):
        for name in ("kp_axis", "alpha_axis"):
            axis = getattr(self, name)
            if (len(axis) != 3 or not all(math.isfinite(x) for x in axis)
                    or not axis[0] < axis[1] or int(axis[2]) < 2):
                raise InvalidGrid("%s must be finite (min, max, count>=2) with min < max"
                                  % name)
        cells = int(self.kp_axis[2]) * int(self.alpha_axis[2])
        if cells > MAX_GRID_CELLS:
            raise InvalidGrid("kp_axis x alpha_axis has %d cells, above the cap of %d"
                              % (cells, MAX_GRID_CELLS))
        for name, values in (("kp_axis", self.kp_values), ("alpha_axis", self.alpha_values)):
            with np.errstate(over="ignore", invalid="ignore"):
                overflows = not np.isfinite(values()).all()
            if overflows:
                raise InvalidGrid("%s spacing overflows" % name)
        if len(self.t_axis) == 0 or any(not (t > 0.0 and math.isfinite(t))
                                        for t in self.t_axis):
            raise InvalidGrid("t_axis must be non-empty with finite positive entries")
        if self.aggregation not in (FIXED_T, FOR_ALL_T):
            raise InvalidGrid("unknown aggregation %r" % (self.aggregation,))
        if not 0 <= self.t_index < len(self.t_axis):
            raise InvalidGrid("t_index out of range")
        self._check_coefficients_finite()

    def _check_coefficients_finite(self) -> None:
        # |kp| / |alpha| sets the coefficients' size: they peak at an end
        # of the kp axis and the non-excluded alpha nearest zero on either
        # side, so a grid whose corner cells overflow is rejected here
        # rather than by the Routh table of one of its cells. A T whose
        # T-only coefficients c3 and c4 overflow is named as the cause.
        kps = self.kp_values()[[0, -1], None]
        alphas = self.alpha_values()
        near_zero = np.array([side[np.argmin(np.abs(side))]
                              for side in (alphas[alphas >= ALPHA_EXCLUSION],
                                           alphas[alphas <= -ALPHA_EXCLUSION]) if side.size])
        ts = self.t_values()
        finite = np.ones((len(ts), 2, len(near_zero)), bool)
        with np.errstate(all="ignore"):
            coeffs = _ip_coeffs(near_zero, kps, np.array(ts)[:, None, None])
        for t, c3, c4 in zip(ts, coeffs[3].ravel(), coeffs[4].ravel()):
            if not (math.isfinite(c3) and math.isfinite(c4)):
                raise FilterConstantOverflow(t)
        for c in coeffs:
            finite &= np.isfinite(c)
        if not finite.all():
            k, i, j = np.argwhere(~finite)[0]
            raise InvalidGrid(
                "kp_axis / alpha_axis: the quartic's coefficients overflow at "
                "kp = %r, alpha = %r, T = %r"
                % (float(kps[i, 0]), float(near_zero[j]), float(ts[k])))

    def t_values(self) -> tuple:
        """The filter constants a verdict considers: the whole axis for
        FOR_ALL_T, t_axis[t_index] alone for FIXED_T."""
        return self.t_axis if self.aggregation == FOR_ALL_T else (self.t_axis[self.t_index],)

    def kp_values(self) -> np.ndarray:
        lo, hi, n = self.kp_axis
        return np.linspace(lo, hi, int(n))

    def alpha_values(self) -> np.ndarray:
        lo, hi, n = self.alpha_axis
        return np.linspace(lo, hi, int(n))


def default_t_axis() -> tuple:
    """25 filter constants spanning [1e-3, 1.9] (log spacing plus 0.1).

    0.1 is inserted explicitly so the all-t verdicts are directly
    comparable with the default fixed-t slice.
    """
    pts = set(float(x) for x in np.logspace(math.log10(1e-3), math.log10(1.9), 24))
    pts.add(0.1)
    return tuple(sorted(pts))


def default_grid_spec(t_filter: float = 0.1) -> GridSpec:
    """The default 201x201 map over kp, alpha in [-5, 5] at one filter constant."""
    return GridSpec(DEFAULT_AXIS, DEFAULT_AXIS, (float(t_filter),), FIXED_T, 0)


def default_all_t_grid_spec() -> GridSpec:
    return GridSpec(DEFAULT_AXIS, DEFAULT_AXIS, default_t_axis(), FOR_ALL_T, 0)


# A verdict's code is its index in this table: codes[i, j] of a
# StabilityGrid classifies cell (i, j) as _VERDICTS[codes[i, j]], so
# every verdict string is one of the shared constants.
_VERDICTS = np.array([VERDICT_STABLE, VERDICT_UNSTABLE, VERDICT_MARGINAL,
                      VERDICT_EXCLUDED], dtype=object)
_STABLE, _UNSTABLE, _MARGINAL, _EXCLUDED = range(len(_VERDICTS))
_CODES = {verdict: code for code, verdict in enumerate(_VERDICTS.tolist())}


@dataclass
class StabilityGrid:
    """Sweep result: codes[i, j], an int8 index into the verdicts stable,
    unstable, marginal, excluded (in that order), classifies
    (kp_values[i], alpha_values[j]). verdicts holds the same as lists of
    the verdict strings, and counts maps each verdict, in that order, to
    its number of cells; both are derived from codes on first use."""

    spec: GridSpec
    codes: np.ndarray

    @functools.cached_property
    def verdicts(self) -> list:
        return _VERDICTS[self.codes].tolist()

    @functools.cached_property
    def counts(self) -> dict:
        return dict(zip(_VERDICTS.tolist(),
                        np.bincount(self.codes.ravel(), minlength=len(_VERDICTS)).tolist()))

    @property
    def stable_fraction(self) -> float:
        """Stable cells over all cells."""
        return self.counts[VERDICT_STABLE] / self.codes.size

    def __eq__(self, other):
        # the generated __eq__ would ask an array of cell comparisons for its truth
        return (isinstance(other, StabilityGrid) and self.spec == other.spec
                and np.array_equal(self.codes, other.codes))


def cell_verdict(kp: float, alpha: float, spec: GridSpec) -> str:
    """Classify one cell under the grid's aggregation rule.

    Unstable if the quartic is unstable at any of spec.t_values(),
    marginal if it is marginal at some and Hurwitz at the others, stable
    if it is Hurwitz at all of them.
    """
    if abs(alpha) < ALPHA_EXCLUSION:
        return VERDICT_EXCLUDED
    verdict = VERDICT_STABLE
    for t in spec.t_values():
        kind = routh_hurwitz(Polynomial(_ip_coeffs(alpha, kp, t))).kind
        if kind == StabilityKind.UNSTABLE:
            return VERDICT_UNSTABLE
        if kind == StabilityKind.MARGINAL:
            verdict = VERDICT_MARGINAL
    return verdict


# The code of a cell the vector sweep flags, until the scalar
# cell_verdict replaces it.
_FALLBACK = len(_VERDICTS)


def _routh_block(kp, alpha, t):
    """Routh test of the quartic at one T over a block of cells.

    kp and alpha broadcast against each other (a column and a row, or two
    1-D arrays); returns boolean arrays (unstable, marginal, flagged). The
    first column [c4, c3, b1, d1, e1] is computed with routh_hurwitz's
    operations in its order. The table's last column is all zeros, so its
    second-column entries b2, d2, e2 are c0, 0 and 0, and e1 is c0, up to
    the sign of a zero.

    Flagged are a trimmed leading coefficient, non-finite values, and a
    first-column entry b1 or d1 within ROUTH_ZERO_REL_TOL of the
    coefficient scale. The last covers the scalar's zero-row and
    zero-pivot branches: every second-column entry is at most the scale.
    A small d1 flags no cell whose pivot or b1 is negative: the scalar
    table has a sign change above d1 there, whatever d1 becomes. An
    unflagged cell is unstable exactly when the scalar table has a sign
    change.

    Four degenerate cases are decided here, as the scalar decides them;
    a zero c0 may come with any of the others, and each makes the cell
    marginal unless it is unstable or flagged:
    - c0 within the zero tolerance (c0 = -kp/alpha, so the whole kp = 0
      row): the s^0 row [e1, 0, 0] is a zero row, which the scalar
      replaces by the derivative of the s^1 row [d1, 0, 0], so the last
      first-column entry is d1 again and c0's sign does not count.
    - c3 a lone zero of the s^3 row [c3, c1] (c3 = 2T - T^2 is one float
      per T, exactly 0 at T = 2). The scalar then pivots on ROUTH_EPS_REL
      * scale instead of c3, which gives other b1 and d1. A block without
      a small c3 in a finite cell pays for this one any().
    - c3 and c1 both within the zero tolerance (at T = 2, the kp = 0.25
      row): the s^3 row is a zero row, which the scalar replaces by the
      derivative [4 c4, 2 c2] of the s^4 row's c4 s^4 + c2 s^2 + c0.
    - b1 a lone zero of the s^2 row [b1, c0] (at T = 2, kp = 0.25 and
      alpha = 0.5, where c2 = 0 too): the scalar pivots on ROUTH_EPS_REL
      times the largest entry of the rows above. Found only where some
      b1 is within the zero tolerance.
    """
    c0, c1, c2, c3, c4 = _ip_coeffs(alpha, kp, t)
    scale = np.maximum(np.maximum(np.abs(c0), np.abs(c1)),
                       np.maximum(np.abs(c2), max(abs(c3), c4)))
    zero_tol = ROUTH_ZERO_REL_TOL * scale
    finite = np.isfinite(scale)
    zero_pivot = abs(c3) <= zero_tol
    degenerate = np.abs(c0) <= zero_tol
    pivot, s3 = c3, c1  # the s^3 row [c3, c1] as the table uses it
    # an excluded alpha = 0 column has infinite coefficients: not a zero
    if (zero_pivot & finite).any():
        lone = (zero_pivot & finite & (np.abs(c1) > zero_tol)
                & (abs(c3) <= ROUTH_ZERO_REL_TOL * np.maximum(abs(c3), np.abs(c1))))
        zero_row = zero_pivot & finite & (np.abs(c1) <= zero_tol)
        pivot = np.where(lone, ROUTH_EPS_REL * scale, np.where(zero_row, 4.0 * c4, c3))
        s3 = np.where(zero_row, 2.0 * c2, c1)
        zero_pivot &= ~(lone | zero_row)
        degenerate |= lone | zero_row
    b1 = c2 - c4 * s3 / pivot
    small_b1 = np.abs(b1) <= zero_tol
    if (small_b1 & finite).any():
        # a lone zero b1 of the s^2 row [b1, c0]: the scalar pivots on
        # ROUTH_EPS_REL * the largest entry of the rows above instead
        lone_b1 = (small_b1 & finite & (np.abs(c0) > zero_tol)
                   & (np.abs(b1) <= ROUTH_ZERO_REL_TOL * np.abs(c0)))
        table_max = np.maximum(scale, np.maximum(np.abs(pivot), np.abs(s3)))
        b1 = np.where(lone_b1, ROUTH_EPS_REL * table_max, b1)
        small_b1 &= ~lone_b1
        degenerate |= lone_b1
    d1 = s3 - pivot * c0 / b1
    flagged = ~(finite & np.isfinite(b1) & np.isfinite(d1))
    flagged |= zero_pivot
    flagged |= c4 <= TRIM_REL_TOL * scale
    flagged |= small_b1
    flagged |= (np.abs(d1) <= zero_tol) & ~((pivot < 0.0) | (b1 < 0.0))
    unstable = (pivot < 0.0) | (b1 < 0.0) | (d1 < 0.0) | (c0 < -zero_tol)
    marginal = degenerate & ~flagged & ~unstable
    return unstable, marginal, flagged


def _decide(codes, kp, alpha, t):
    """Apply _routh_block at t to the cells of codes still followed
    (stable or marginal so far), writing their new codes in place.
    Returns the cells still followed: a flagged cell gets _FALLBACK and an
    unstable one is decided, while a marginal one may yet turn unstable
    or flagged at a later T."""
    with np.errstate(all="ignore"):
        unstable, marginal, flagged = _routh_block(kp, alpha, t)
    followed = (codes == _STABLE) | (codes == _MARGINAL)
    codes[followed & flagged] = _FALLBACK
    followed &= ~flagged
    codes[followed & unstable] = _UNSTABLE
    followed &= ~unstable
    codes[followed & marginal] = _MARGINAL
    return followed


def sweep(spec: GridSpec) -> StabilityGrid:
    """Classify every grid cell.

    Takes the T's in axis order, as cell_verdict does. The first T runs on
    blocks of whole kp rows; each later T runs only on the cells still
    followed (not yet unstable or flagged, a marginal cell included), in
    1-D chunks of at most _BLOCK_CELLS. A flagged cell is classified by
    the scalar cell_verdict, so the verdicts equal cell_verdict's on
    every cell.
    """
    kps = spec.kp_values()
    alphas = spec.alpha_values()
    ts = spec.t_values()
    codes = np.full((len(kps), len(alphas)), _STABLE, np.int8)
    codes[:, np.abs(alphas) < ALPHA_EXCLUSION] = _EXCLUDED
    followed = np.empty(codes.shape, bool)
    rows_per_block = max(1, _BLOCK_CELLS // len(alphas))
    for start in range(0, len(kps), rows_per_block):
        rows = slice(start, start + rows_per_block)
        followed[rows] = _decide(codes[rows], kps[rows, None], alphas, ts[0])
    cells = np.flatnonzero(followed)
    flat = codes.reshape(-1)
    for t in ts[1:]:
        still = np.empty(len(cells), bool)
        for start in range(0, len(cells), _BLOCK_CELLS):
            chunk = cells[start:start + _BLOCK_CELLS]
            i, j = np.divmod(chunk, len(alphas))
            chunk_codes = flat[chunk]
            still[start:start + _BLOCK_CELLS] = _decide(chunk_codes, kps[i], alphas[j], t)
            flat[chunk] = chunk_codes
        cells = cells[still]
    for i, j in zip(*np.nonzero(codes == _FALLBACK)):
        codes[i, j] = _CODES[cell_verdict(float(kps[i]), float(alphas[j]), spec)]
    return StabilityGrid(spec, codes)


def export_grid(grid: StabilityGrid, path) -> None:
    """Write the grid as CSV plus a trailing stable-fraction summary comment.

    Fixed-t grids use header kp,alpha,verdict; all-t grids add the
    aggregation tag in a t column. Rows iterate kp-major. The last line is
    '# stable_fraction = <value>'. The file is written in binary, one
    block of whole kp rows (at most _BLOCK_CELLS cells, at least one row)
    per write.
    """
    spec = grid.spec
    if spec.aggregation == FIXED_T:
        header, mid = b"kp,alpha,verdict\n", b","
    else:
        header, mid = b"kp,alpha,t,verdict\n", b",all,"
    # tails[j, code]: alpha j's row tail for each verdict code; a kp row
    # is its cells' tails joined by, and led by, the kp field
    verdicts = [v.encode() for v in _VERDICTS.tolist()]
    tails = np.array([[b"," + repr(alpha).encode() + mid + v + b"\n" for v in verdicts]
                      for alpha in spec.alpha_values().tolist()], dtype=object)
    columns = np.arange(len(tails))
    kps = [repr(kp).encode() for kp in spec.kp_values().tolist()]
    rows_per_block = max(1, _BLOCK_CELLS // len(tails))
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, len(kps), rows_per_block):
            rows = slice(start, start + rows_per_block)
            fh.write(b"".join([kp + kp.join(row) for kp, row in
                               zip(kps[rows], tails[columns, grid.codes[rows]].tolist())]))
        fh.write(b"# stable_fraction = " + repr(grid.stable_fraction).encode() + b"\n")


def ip_loop_for_cell(kp: float, alpha: float, t: float) -> tuple:
    """Intelligent-proportional loop realizing map cell (kp, alpha) at filter constant t.

    Returns (controller, estimator). The map's quartic is tabulated with
    the proportional correction acting on the measured output directly;
    the control law here uses the error convention e = y_ref - y, so the
    loop whose characteristic polynomial matches cell (kp, alpha) carries
    proportional gain -kp. The quartic models the nu = 1 analysis-form
    estimator with the nominal plant's coefficients, so that is the
    estimator returned. Verified by the grid-vs-simulation
    cross-validation suite.
    """
    plant = example_plant(delta=1.0)
    return (ControllerSpec.ip(kp=-kp, alpha=alpha),
            EstimatorConfig(nu=1, alpha=alpha, t_filter=t, variant=ANALYSIS_FORM,
                            plant_coeffs=(plant.a1, plant.a0, plant.b)))


def quartic_max_real_root(kp: float, alpha: float, t: float) -> float:
    """Largest real part among the tabulated quartic's roots (root oracle).

    Raises InvalidGrid, naming the argument, for a non-finite argument,
    alpha = 0 (the quartic divides by it) or t <= 0 (t = 0 would leave a
    quadratic).
    """
    for name, value in (("kp", kp), ("alpha", alpha), ("t", t)):
        if not math.isfinite(value):
            raise InvalidGrid("%s must be finite, got %r" % (name, value))
    if alpha == 0.0:
        raise InvalidGrid("alpha must be nonzero")
    if t <= 0.0:
        raise InvalidGrid("t must be positive, got %r" % (t,))
    return max_real_part_of_roots(Polynomial(_ip_coeffs(alpha, kp, t)))


@dataclass(frozen=True)
class SampleCheck:
    """One cross-validation draw: algebraic verdict vs simulated behavior."""

    kp: float
    alpha: float
    t_filter: float
    verdict: str
    max_root_real_part: float
    diverged: bool
    agrees: bool


@dataclass
class AgreementReport:
    checks: list
    agreement_rate: float
    boundary_band: float

    def summary(self) -> str:
        lines = ["cross-validation: %d samples, agreement %.1f%% (|Re root| > %g band)"
                 % (len(self.checks), 100.0 * self.agreement_rate, self.boundary_band)]
        for c in self.checks:
            lines.append("  kp=%+.3f alpha=%+.3f t=%g verdict=%s maxRe=%+.4f "
                         "diverged=%s agrees=%s"
                         % (c.kp, c.alpha, c.t_filter, c.verdict,
                            c.max_root_real_part, c.diverged, c.agrees))
        return "\n".join(lines)


def cross_validate(grid: StabilityGrid, samples: int = 50, seed: int = 0,
                   boundary_band: float = 0.05) -> AgreementReport:
    """Compare grid verdicts against noise-free time-domain simulations.

    Draws a stratified sample of stable/unstable cells (round-robin across
    verdict classes, order shuffled by the seed), skipping cells whose
    quartic has a root within boundary_band of the imaginary axis, where
    a 20 s run cannot separate slow growth from slow decay (InvalidGrid if
    that leaves no cell). Each sampled cell is simulated as the matching
    intelligent-proportional loop (ip_loop_for_cell, regulation to zero
    from y0 = -0.05, no noise, 20 s at h = 1e-3); a stable verdict should
    mean a bounded run and an unstable verdict a diverged one. The
    diverged flags come from one sim.regulation_diverged call for all
    picked cells, which reads them off each loop's step matrix and
    simulates only a loop whose flag that leaves unclear; they equal
    run_closed_loop's flags. Nothing runs in another process.
    """
    spec = grid.spec
    if spec.aggregation != FIXED_T:
        raise InvalidGrid("cross_validate needs a fixed-t grid")
    try:
        samples = operator.index(samples)
    except TypeError:
        raise InvalidGrid("samples must be an integer, got %r" % (samples,)) from None
    if samples < 1:
        raise InvalidGrid("samples must be >= 1")
    if not (boundary_band >= 0.0 and math.isfinite(boundary_band)):
        raise InvalidGrid("boundary_band must be finite and >= 0, got %r" % (boundary_band,))
    (t,) = spec.t_values()
    kps = spec.kp_values().tolist()
    alphas = spec.alpha_values().tolist()
    n_alpha = len(alphas)

    def off_band(verdict, flat):
        # the cells at the flat indices in turn, skipping those within the band
        for ix in flat:
            i, j = divmod(int(ix), n_alpha)
            max_re = quartic_max_real_root(kps[i], alphas[j], t)
            if abs(max_re) > boundary_band:
                yield kps[i], alphas[j], verdict, max_re

    rng = np.random.default_rng(seed)
    pools = []
    for code in (_STABLE, _UNSTABLE):
        # the kp-major flat indices of the cells with this verdict
        flat = np.flatnonzero(grid.codes == code)
        pools.append(off_band(_VERDICTS[code], flat[rng.permutation(len(flat))]))

    # round robin: one cell from each pool in turn, dropping a pool once empty
    picked = []
    while pools and len(picked) < samples:
        pool = pools.pop(0)
        cell = next(pool, None)
        if cell is not None:
            picked.append(cell)
            pools.append(pool)
    if not picked:
        raise InvalidGrid("no stable or unstable cell has |largest root real part|"
                          " > boundary_band = %r" % (boundary_band,))

    plant = example_plant(delta=1.0)
    flags = regulation_diverged([(plant, *ip_loop_for_cell(kp, alpha, t), -0.05, 0.0)
                                 for kp, alpha, _, _ in picked], h=1e-3, duration=20.0)
    checks = [SampleCheck(kp, alpha, t, verdict, max_re, diverged,
                          diverged == (verdict == VERDICT_UNSTABLE))
              for (kp, alpha, verdict, max_re), diverged in zip(picked, flags)]

    rate = sum(c.agrees for c in checks) / len(checks)
    return AgreementReport(checks, rate, boundary_band)
