"""Stability maps of the filtered intelligent-proportional loop.

Sweeps a (kp, alpha) grid, classifying each cell through the Routh table
of the loop's quartic characteristic polynomial, either at one filter
time constant or aggregated over a whole axis of them. A cross-validation
routine replays sampled cells as actual time-domain simulations so the
algebraic verdicts and the loop behavior can be compared on equal terms;
it reads the runs' diverged flags off the sampled loops' step matrices
(sim.regulation_diverged).

The quartic's coefficients are built here (_ip_coeffs), for the vector
sweep, the scalar cell_verdict and the root oracles quartic_max_real_root
(one cell) and _max_real_roots (a batch) alike. The sweep classifies
blocks of cells with poly.routh_block, which runs routh_hurwitz's table
and its degenerate-case rules over numpy arrays, so every cell gets the
verdict the scalar table gives; the scalar cell_verdict stays the
reference the sweep is tested against. A cell it flags (a non-finite
table) fails the sweep with InvalidGrid, worded by cell_verdict's error;
the sweep is the only place a grid is refused for its Routh tables.

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
    TRIM_REL_TOL,
    Polynomial,
    PolynomialError,
    StabilityKind,
    max_real_part_of_roots,
    routh_block,
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
    """The sweep's first cell without a verdict fails at a filter constant
    t whose square overflows, as the quartic's T-only coefficients do
    whatever the cell."""

    def __init__(self, t: float):
        self.t = t
        self.reason = "T = %r overflows the quartic's coefficients 2T - T^2 and T^2" % (t,)
        super().__init__("t_axis: " + self.reason)


class CellWithoutVerdict(InvalidGrid):
    """A cell's Routh table is not finite at a filter constant the verdict
    considers."""

    def __init__(self, kp: float, alpha: float, reason):
        self.reason = "the cell kp = %r, alpha = %r has no Routh verdict: %s" % (kp, alpha, reason)
        super().__init__("kp_axis / alpha_axis / t_axis: " + self.reason)


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
    it unstable, marginal otherwise. Only the axes are checked here: a
    grid with a cell whose Routh table cannot be formed is refused by
    sweep.
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
        # one 1-byte mask per verdict, not the codes widened to 8-byte ints
        return {verdict: int(np.count_nonzero(self.codes == code))
                for code, verdict in enumerate(_VERDICTS.tolist())}

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


def sweep(spec: GridSpec) -> StabilityGrid:
    """Classify every grid cell.

    Takes the T's in axis order, as cell_verdict does. The first T runs on
    blocks of whole kp rows; the later T's run together on the cells
    still followed (not yet unstable, a marginal cell included), in 1-D
    chunks of at most _BLOCK_CELLS (cell, T) pairs. The verdicts equal
    cell_verdict's on every cell. The first cell routh_block flags, in
    that order, raises FilterConstantOverflow if the T it fails at has a
    square that overflows, else CellWithoutVerdict quoting cell_verdict's
    error.
    """
    kps = spec.kp_values()
    alphas = spec.alpha_values()
    ts = spec.t_values()
    codes = np.full((len(kps), len(alphas)), _STABLE, np.int8)
    excluded = np.abs(alphas) < ALPHA_EXCLUSION

    def refuse(i, j, t):
        # cell (i, j) is the first flagged, at filter constant t
        t = float(t)
        if math.isinf(t * t):
            return FilterConstantOverflow(t)
        kp, alpha = float(kps[i]), float(alphas[j])
        # refused even should the scalar table give the flagged cell a verdict
        reason = "its vector Routh table is not finite"
        try:
            cell_verdict(kp, alpha, spec)
        except PolynomialError as exc:
            reason = exc
        return CellWithoutVerdict(kp, alpha, reason)

    # alpha = 1 stands in for an excluded cell's alpha, so that no block
    # holds its non-finite coefficients; its code is set last
    block_alphas = np.where(excluded, 1.0, alphas)
    rows_per_block = max(1, _BLOCK_CELLS // len(alphas))
    for start in range(0, len(kps), rows_per_block):
        rows = slice(start, start + rows_per_block)
        with np.errstate(all="ignore"):
            unstable, degenerate, flagged = routh_block(
                _ip_coeffs(block_alphas, kps[rows, None], ts[0]))
        flagged &= ~excluded
        if flagged.any():
            i, j = np.argwhere(flagged)[0]
            raise refuse(start + i, j, ts[0])
        # each verdict overrides those written before it
        block = codes[rows]
        block[degenerate] = _MARGINAL
        block[unstable] = _UNSTABLE
    codes[:, excluded] = _EXCLUDED
    # the later T's, all in one call per chunk of the cells still followed
    # (stable or marginal); a chunk times the later T's is <= _BLOCK_CELLS
    later = np.reshape(ts[1:], (-1, 1))
    cells = np.flatnonzero((codes == _STABLE) | (codes == _MARGINAL)) if len(later) else []
    cells_per_chunk = max(1, _BLOCK_CELLS // max(1, len(later)))
    flat = codes.reshape(-1)
    for start in range(0, len(cells), cells_per_chunk):
        chunk = cells[start:start + cells_per_chunk]
        i, j = np.divmod(chunk, len(alphas))
        with np.errstate(all="ignore"):
            unstable, degenerate, flagged = routh_block(_ip_coeffs(alphas[j], kps[i], later))
        # a cell takes the verdict of its first T that is flagged or unstable
        first = (flagged | unstable).argmax(axis=0), np.arange(len(chunk))
        hit = flagged[first]
        if hit.any():
            k = hit.argmax()
            raise refuse(*np.divmod(chunk[k], len(alphas)), later[first[0][k], 0])
        flat[chunk[unstable[first]]] = _UNSTABLE
        flat[chunk[~unstable[first] & degenerate.any(axis=0)]] = _MARGINAL
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
    quadratic). _max_real_roots gives the same value for a batch of cells.
    """
    for name, value in (("kp", kp), ("alpha", alpha), ("t", t)):
        if not math.isfinite(value):
            raise InvalidGrid("%s must be finite, got %r" % (name, value))
    if alpha == 0.0:
        raise InvalidGrid("alpha must be nonzero")
    if t <= 0.0:
        raise InvalidGrid("t must be positive, got %r" % (t,))
    return max_real_part_of_roots(Polynomial(_ip_coeffs(alpha, kp, t)))


def _max_real_roots(kps: np.ndarray, alphas: np.ndarray, t: float) -> list:
    """max_real_part_of_roots(Polynomial(_ip_coeffs(alpha, kp, t))) of each
    (kp, alpha), from one stacked eigvals of the companion matrices np.roots
    builds. A cell whose Polynomial would trim or is not finite, whose c0
    is 0 (np.roots strips a zero root), or whose batch's solve fails, goes
    to max_real_part_of_roots itself, which raises as before.
    """
    companion = np.zeros((len(kps), 4, 4))
    companion[:, 1:, :-1] = np.eye(3)
    c = np.empty((len(kps), 5))
    with np.errstate(all="ignore"):
        for k, ck in enumerate(_ip_coeffs(alphas, kps, t)):
            c[:, k] = ck
        companion[:, 0] = -c[:, 3::-1] / c[:, 4:]
        # a nan or inf coefficient fails the trim test too
        scalar = ~(np.abs(c[:, 4]) > TRIM_REL_TOL * np.abs(c).max(axis=1)) | (c[:, 0] == 0.0)
    out = np.empty(len(c))
    try:
        out[~scalar] = np.linalg.eigvals(companion[~scalar]).real.max(axis=1)
    except np.linalg.LinAlgError:
        scalar[:] = True
    for i in np.flatnonzero(scalar):
        out[i] = max_real_part_of_roots(Polynomial(c[i]))
    return out.tolist()


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
    that leaves no cell; the roots of a pool's cells are found a batch at
    a time, _max_real_roots). Each sampled cell is simulated as the matching
    intelligent-proportional loop (ip_loop_for_cell, regulation to zero
    from y0 = -0.05, no noise, 20 s at h = 1e-3); a stable verdict should
    mean a bounded run and an unstable verdict a diverged one. The
    diverged flags come from one sim.regulation_diverged call for all
    picked cells, which reads them off the loops' step matrices, built
    together, and simulates only a loop whose flag that leaves unclear;
    they equal run_closed_loop's flags. Nothing runs in another process.
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
    kps = spec.kp_values()
    alphas = spec.alpha_values()

    def off_band(verdict, flat, order):
        # the cells flat[order] in turn, skipping those within the band;
        # their roots are found a batch of `samples` cells at a time
        for start in range(0, len(order), samples):
            i, j = np.divmod(flat[order[start:start + samples]], len(alphas))
            for kp, alpha, max_re in zip(kps[i].tolist(), alphas[j].tolist(),
                                         _max_real_roots(kps[i], alphas[j], t)):
                if abs(max_re) > boundary_band:
                    yield kp, alpha, verdict, max_re

    rng = np.random.default_rng(seed)
    pools = []
    for code in (_STABLE, _UNSTABLE):
        flat = np.flatnonzero(grid.codes == code)
        pools.append(off_band(_VERDICTS[code], flat, rng.permutation(len(flat))))

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
