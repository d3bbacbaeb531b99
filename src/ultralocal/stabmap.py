"""Stability maps of the filtered intelligent-proportional loop.

Sweeps a (kp, alpha) grid, classifying each cell through the Routh table
of the loop's quartic characteristic polynomial, either at one filter
time constant or aggregated over a whole axis of them. A cross-validation
routine replays sampled cells as actual time-domain simulations so the
algebraic verdicts and the loop behavior can be compared on equal terms;
it runs those simulations on every core the process may use.

The sweep computes the quartic's Routh first column as numpy arrays over
blocks of whole kp rows, with the float operations of ip_charpoly and
routh_hurwitz in their order, so every cell it decides gets the verdict
the scalar table gives. Wherever a branch of the scalar table could fire
(a trimmed leading coefficient, a zero row or pivot, a non-finite entry)
the cell is flagged and classified by the scalar cell_verdict instead,
which stays the reference the vector path is tested against.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .control import ControllerSpec, EstimatorConfig, ANALYSIS_FORM
from .poly import (
    ROUTH_ZERO_REL_TOL,
    TRIM_REL_TOL,
    IpLoopParams,
    StabilityKind,
    _ip_coeffs,
    ip_charpoly,
    max_real_part_of_roots,
    routh_hurwitz,
)
from .pool import run_jobs
from .sim import NoiseModel, ReferenceTrajectory, closed_loop_diverges, example_plant

# |alpha| below this is excluded from sweeps: the control law divides by alpha.
ALPHA_EXCLUSION = 1e-9

# Largest kp count x alpha count a grid may have: 100 times the default
# 201x201 map. The verdict lists alone take about 8 bytes per cell.
MAX_GRID_CELLS = 4_000_000

# The default kp and alpha axis of a map: [-5, 5] in 201 points.
DEFAULT_AXIS = (-5.0, 5.0, 201)

# Cells per block of the vector sweep, rounded down to whole kp rows (at
# least one), so its temporaries stay small whatever the grid size.
_BLOCK_CELLS = 4096

VERDICT_STABLE = "stable"
VERDICT_UNSTABLE = "unstable"
VERDICT_MARGINAL = "marginal"
VERDICT_EXCLUDED = "excluded"

FIXED_T = "fixed-t"
FOR_ALL_T = "for-all-t"


class InvalidGrid(ValueError):
    """Grid axes or aggregation parameters are unusable."""


class IoFailure(OSError):
    """Grid export could not be written."""


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
        # rather than by the Routh table of one of its cells.
        kps = self.kp_values()[[0, -1], None]
        alphas = self.alpha_values()
        near_zero = np.array([side[np.argmin(np.abs(side))]
                              for side in (alphas[alphas >= ALPHA_EXCLUSION],
                                           alphas[alphas <= -ALPHA_EXCLUSION]) if side.size])
        ts = self.t_values()
        finite = np.ones((len(ts), 2, len(near_zero)), bool)
        with np.errstate(all="ignore"):
            for c in _ip_coeffs(near_zero, kps, np.array(ts)[:, None, None]):
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


@dataclass
class StabilityGrid:
    """Sweep result: verdicts[i][j] classifies (kp_values[i], alpha_values[j])."""

    spec: GridSpec
    verdicts: list
    stable_fraction: float


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
        kind = routh_hurwitz(ip_charpoly(IpLoopParams(alpha=alpha, kp=kp, t_filter=t))).kind
        if kind == StabilityKind.UNSTABLE:
            return VERDICT_UNSTABLE
        if kind == StabilityKind.MARGINAL:
            verdict = VERDICT_MARGINAL
    return verdict


# Verdict codes of the vector sweep index this table, so that every
# verdict string is one of the shared constants. Code _FALLBACK marks a
# flagged cell; its entry is replaced by the scalar verdict.
_VERDICTS = np.array([VERDICT_STABLE, VERDICT_UNSTABLE, VERDICT_MARGINAL,
                      VERDICT_EXCLUDED], dtype=object)
_STABLE, _UNSTABLE, _FALLBACK, _EXCLUDED = range(4)


def _routh_block(kp, alpha, t):
    """Routh test of the quartic at one T over a block of cells.

    kp is a column and alpha a row; returns boolean arrays (unstable,
    flagged). The first column [c4, c3, b1, d1, e1] is computed with
    routh_hurwitz's operations in its order. The table's last column is
    all zeros, so its second-column entries b2, d2, e2 are c0, 0 and 0,
    and e1 is c0, up to the sign of a zero, which is flagged.

    Flagged are a trimmed leading coefficient, non-finite values, and a
    first-column entry within ROUTH_ZERO_REL_TOL of the coefficient
    scale. The last covers the scalar's zero-row and zero-pivot branches:
    every second-column entry is at most the scale. An unflagged cell is
    unstable exactly when the scalar table has a sign change.
    """
    c0, c1, c2, c3, c4 = _ip_coeffs(alpha, kp, t)
    b1 = c2 - c4 * c1 / c3
    d1 = c1 - c3 * c0 / b1
    scale = np.maximum(np.maximum(np.abs(c0), np.abs(c1)),
                       np.maximum(np.abs(c2), max(abs(c3), c4)))
    zero_tol = ROUTH_ZERO_REL_TOL * scale
    flagged = ~(np.isfinite(scale) & np.isfinite(b1) & np.isfinite(d1))
    flagged |= c4 <= TRIM_REL_TOL * scale
    for entry in (c3, b1, d1, c0):
        flagged |= np.abs(entry) <= zero_tol
    unstable = (c3 < 0.0) | (b1 < 0.0) | (d1 < 0.0) | (c0 < 0.0)
    return unstable, flagged


def sweep(spec: GridSpec) -> StabilityGrid:
    """Classify every grid cell; stable_fraction counts stable over all cells.

    Works in blocks of whole kp rows and, within a block, T by T in axis
    order, as cell_verdict does. The vector test (_routh_block) follows a
    cell until it is unstable or flagged; a cell flagged first is
    classified by the scalar cell_verdict, so the verdicts equal
    cell_verdict's on every cell.
    """
    kps = spec.kp_values()
    alphas = spec.alpha_values()
    ts = spec.t_values()
    excluded = np.abs(alphas) < ALPHA_EXCLUSION
    rows_per_block = max(1, _BLOCK_CELLS // len(alphas))
    verdicts = []
    stable = 0
    for start in range(0, len(kps), rows_per_block):
        kp = kps[start:start + rows_per_block, None]
        codes = np.zeros((len(kp), len(alphas)), np.intp)
        codes[:, excluded] = _EXCLUDED
        undecided = codes == _STABLE
        for t in ts:
            with np.errstate(all="ignore"):
                unstable, flagged = _routh_block(kp, alphas, t)
            codes[undecided & flagged] = _FALLBACK
            undecided &= ~flagged
            codes[undecided & unstable] = _UNSTABLE
            undecided &= ~unstable
            if not undecided.any():
                break
        rows = _VERDICTS[codes].tolist()
        for i, j in zip(*np.nonzero(codes == _FALLBACK)):
            rows[i][j] = cell_verdict(float(kp[i, 0]), float(alphas[j]), spec)
        stable += sum(row.count(VERDICT_STABLE) for row in rows)
        verdicts.extend(rows)
    return StabilityGrid(spec, verdicts, stable / (len(kps) * len(alphas)))


def export_grid(grid: StabilityGrid, path) -> None:
    """Write the grid as CSV plus a trailing stable-fraction summary comment.

    Fixed-t grids use header kp,alpha,verdict; all-t grids add the
    aggregation tag in a t column. Rows iterate kp-major. The last line is
    '# stable_fraction = <value>'.
    """
    spec = grid.spec
    if spec.aggregation == FIXED_T:
        header, mid = "kp,alpha,verdict\n", ","
    else:
        header, mid = "kp,alpha,t,verdict\n", ",all,"
    # each alpha's row tail for each verdict; a kp row is its tails joined
    # by, and led by, the kp field
    tails = [{v: "," + repr(alpha) + mid + v + "\n" for v in _VERDICTS.tolist()}
             for alpha in spec.alpha_values().tolist()]
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(header)
            for kp, row in zip(spec.kp_values().tolist(), grid.verdicts):
                kp_field = repr(kp)
                fh.write(kp_field + kp_field.join([t[v] for t, v in zip(tails, row)]))
            fh.write("# stable_fraction = %s\n" % repr(grid.stable_fraction))
    except OSError as exc:
        raise IoFailure("cannot write grid to %r: %s" % (path, exc)) from exc


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
    """Largest real part among the tabulated quartic's roots (root oracle)."""
    return max_real_part_of_roots(ip_charpoly(IpLoopParams(alpha=alpha, kp=kp, t_filter=t)))


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


def _cell_diverged(kp: float, alpha: float, t: float) -> bool:
    """Whether the loop of map cell (kp, alpha, t) diverges in a noise-free
    20 s regulation to zero from y0 = -0.05."""
    controller, estimator = ip_loop_for_cell(kp, alpha, t)
    return closed_loop_diverges(example_plant(delta=1.0), controller, estimator,
                                ReferenceTrajectory.constant(0.0), NoiseModel(0.0, 0),
                                h=1e-3, duration=20.0, y0=-0.05)


def cross_validate(grid: StabilityGrid, samples: int = 50, seed: int = 0,
                   boundary_band: float = 0.05) -> AgreementReport:
    """Compare grid verdicts against noise-free time-domain simulations.

    Draws a stratified sample of stable/unstable cells (round-robin across
    verdict classes, order shuffled by the seed), skipping cells whose
    quartic has a root within boundary_band of the imaginary axis, where
    a 20 s run cannot separate slow growth from slow decay. Each sampled
    cell is simulated as the matching intelligent-proportional loop
    (ip_loop_for_cell, regulation to zero from y0 = -0.05,
    no noise); a stable verdict should mean a bounded run and an unstable
    verdict a diverged one. The cells are picked here and simulated on
    every usable core (pool.run_jobs); the report does not depend on the
    core count.
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
    # one scan of the grid; each pool reads its kp-major flat indices
    verdicts = np.array(grid.verdicts, dtype=object)

    def off_band(verdict, flat):
        # the cells at the flat indices in turn, skipping those within the band
        for ix in flat:
            i, j = divmod(int(ix), n_alpha)
            max_re = quartic_max_real_root(kps[i], alphas[j], t)
            if abs(max_re) > boundary_band:
                yield kps[i], alphas[j], verdict, max_re

    rng = np.random.default_rng(seed)
    pools = []
    for verdict in (VERDICT_STABLE, VERDICT_UNSTABLE):
        flat = np.flatnonzero(verdicts == verdict)
        pools.append(off_band(verdict, flat[rng.permutation(len(flat))]))

    # round robin: one cell from each pool in turn, dropping a pool once empty
    picked = []
    while pools and len(picked) < samples:
        pool = pools.pop(0)
        cell = next(pool, None)
        if cell is not None:
            picked.append(cell)
            pools.append(pool)

    # the runs are deterministic, so the flags do not depend on the core count
    flags = run_jobs([functools.partial(_cell_diverged, kp, alpha, t)
                      for kp, alpha, _, _ in picked])
    checks = [SampleCheck(kp, alpha, t, verdict, max_re, diverged,
                          diverged == (verdict == VERDICT_UNSTABLE))
              for (kp, alpha, verdict, max_re), diverged in zip(picked, flags)]

    rate = sum(c.agrees for c in checks) / len(checks) if checks else 0.0
    return AgreementReport(checks, rate, boundary_band)
