"""Tests for the stability-map sweep and its simulation cross-check."""

import functools
import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from forks import another_thread_running, forbid_processes
from ultralocal import pool, sim, stabmap
from ultralocal.control import ANALYSIS_FORM
from ultralocal.sim import NoiseModel, ReferenceTrajectory, example_plant
from ultralocal.poly import (ROUTH_ZERO_REL_TOL, Polynomial, PolynomialError, StabilityKind,
                             max_real_part_of_roots, routh_block, routh_hurwitz)
from ultralocal.stabmap import (
    ALPHA_EXCLUSION,
    DEFAULT_AXIS,
    FIXED_T,
    FOR_ALL_T,
    MAX_GRID_CELLS,
    VERDICT_EXCLUDED,
    VERDICT_MARGINAL,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    AgreementReport,
    GridSpec,
    InvalidGrid,
    SampleCheck,
    cell_verdict,
    cross_validate,
    default_all_t_grid_spec,
    default_grid_spec,
    default_t_axis,
    export_grid,
    ip_loop_for_cell,
    quartic_max_real_root,
    sweep,
)


# ---------------------------------------------------------------------------
# GridSpec


def test_grid_spec_validation():
    with pytest.raises(InvalidGrid):
        GridSpec((0.0, 1.0, 1), (0.0, 1.0, 2), (0.1,))
    with pytest.raises(InvalidGrid):
        GridSpec((1.0, 0.0, 2), (0.0, 1.0, 2), (0.1,))
    with pytest.raises(InvalidGrid):
        GridSpec((0.0, 1.0, 2), (0.0, 1.0, 2), ())
    with pytest.raises(InvalidGrid):
        GridSpec((0.0, 1.0, 2), (0.0, 1.0, 2), (0.0,))
    with pytest.raises(InvalidGrid):
        GridSpec((0.0, 1.0, 2), (0.0, 1.0, 2), (0.1,), aggregation="sometimes")
    with pytest.raises(InvalidGrid):
        GridSpec((0.0, 1.0, 2), (0.0, 1.0, 2), (0.1,), t_index=1)


@pytest.mark.parametrize("kp_axis,alpha_axis,t_axis,match", [
    ((-math.inf, 1.0, 3), (0.0, 1.0, 2), (0.1,), "kp_axis"),
    ((0.0, 1.0, 3), (0.0, math.nan, 2), (0.1,), "alpha_axis"),
    ((-1e308, 1e308, 3), (0.0, 1.0, 2), (0.1,), "kp_axis spacing overflows"),
    ((0.0, 1.0, 2), (-1e308, 1e308, 5), (0.1,), "alpha_axis spacing overflows"),
    ((0.0, 1.0, 2), (0.0, 1.0, 2), (0.1, math.inf), "t_axis"),
    ((0.0, 1.0, 2), (0.0, 1.0, 2), (math.nan,), "t_axis"),
    ((0.0, 1.0, MAX_GRID_CELLS // 2 + 1), (0.0, 1.0, 2), (0.1,), "cap"),
    # T^2 overflows in every cell: T is named as the cause, not the gain axes
    ((0.0, 1.0, 2), (0.0, 1.0, 2), (1e300,),
     r"^t_axis: T = 1e\+300 overflows the quartic's coefficients 2T - T\^2 and T\^2$"),
])
def test_grid_spec_rejects_unusable_axes(kp_axis, alpha_axis, t_axis, match):
    with pytest.raises(InvalidGrid, match=match):
        GridSpec(kp_axis, alpha_axis, t_axis)


def test_grid_spec_axes_values():
    spec = GridSpec((-1.0, 1.0, 5), (0.0, 2.0, 3), (0.1,))
    assert np.array_equal(spec.kp_values(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.array_equal(spec.alpha_values(), [0.0, 1.0, 2.0])


def test_default_specs():
    spec = default_grid_spec()
    assert spec.kp_axis == (-5.0, 5.0, 201)
    assert spec.alpha_axis == (-5.0, 5.0, 201)
    assert spec.t_axis == (0.1,)
    assert spec.aggregation == FIXED_T
    allt = default_all_t_grid_spec()
    assert allt.aggregation == FOR_ALL_T
    assert allt.t_axis == default_t_axis()


def test_default_t_axis_contents():
    axis = default_t_axis()
    assert 0.1 in axis
    assert axis == tuple(sorted(axis))
    assert math.isclose(axis[0], 1e-3)
    assert math.isclose(axis[-1], 1.9)
    assert len(axis) == 25


# ---------------------------------------------------------------------------
# The iP quartic


def test_ip_quartic_reference_point():
    # frozen oracle: unit gain, unit proportional gain, unit filter time
    p = Polynomial(stabmap._ip_coeffs(1.0, 1.0, 1.0))
    assert p.coeffs == (-1.0, -1.0, -1.0, 1.0, 1.0)


def test_ip_quartic_second_point():
    # hand-expanded at alpha=0.5, kp=-1, T=0.1
    p = Polynomial(stabmap._ip_coeffs(0.5, -1.0, 0.1))
    expected = (2.0, 2.4, 0.12, 0.19, 0.01)
    assert np.allclose(p.coeffs, expected, rtol=0.0, atol=1e-15)


def test_ip_quartic_always_degree_4():
    rng = np.random.default_rng(3)
    for _ in range(100):
        alpha = float(rng.uniform(0.1, 4.0) * rng.choice((-1.0, 1.0)))
        kp = float(rng.uniform(-5.0, 5.0))
        t = float(rng.uniform(0.01, 1.9))
        assert Polynomial(stabmap._ip_coeffs(alpha, kp, t)).degree == 4


def test_ip_quartic_same_sign_gains_never_hurwitz():
    # constant coefficient is -kp/alpha < 0 whenever kp*alpha > 0
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = float(rng.choice((-1.0, 1.0)))
        kp = s * float(rng.uniform(1e-3, 5.0))
        alpha = s * float(rng.uniform(1e-3, 4.0))
        t = float(rng.uniform(1e-3, 1.9))
        v = routh_hurwitz(Polynomial(stabmap._ip_coeffs(alpha, kp, t)))
        assert not v.is_hurwitz


def test_quartic_max_real_root_rejects_unusable_arguments():
    # t = 0 would trim the quartic to a quadratic, alpha = 0 divide by zero
    for kp, alpha, t, match in [
        (1.0, 0.0, 0.1, "alpha must be nonzero"),
        (1.0, 1.0, 0.0, "t must be positive"),
        (1.0, 1.0, -0.1, "t must be positive"),
        (math.nan, 1.0, 0.1, "kp must be finite"),
        (1.0, math.inf, 0.1, "alpha must be finite"),
        (1.0, 1.0, math.inf, "t must be finite"),
    ]:
        with pytest.raises(InvalidGrid, match=match):
            quartic_max_real_root(kp, alpha, t)


# ---------------------------------------------------------------------------
# Cell verdicts


def test_cell_verdict_excludes_tiny_alpha():
    spec = default_grid_spec()
    assert cell_verdict(1.0, 0.0, spec) == VERDICT_EXCLUDED
    assert cell_verdict(1.0, 1e-12, spec) == VERDICT_EXCLUDED


def test_cell_verdict_known_cells():
    spec = default_grid_spec()
    assert cell_verdict(-0.5, 0.2, spec) == VERDICT_STABLE
    assert cell_verdict(1.0, 1.0, spec) == VERDICT_UNSTABLE


def test_cell_verdict_same_sign_gains_never_stable():
    spec = default_grid_spec()
    rng = np.random.default_rng(41)
    for _ in range(50):
        s = float(rng.choice((-1.0, 1.0)))
        kp = s * float(rng.uniform(0.05, 5.0))
        alpha = s * float(rng.uniform(0.05, 5.0))
        assert cell_verdict(kp, alpha, spec) != VERDICT_STABLE


def test_all_t_verdict_requires_every_t():
    # this cell is Hurwitz at T=0.1 but loses stability at larger T
    fixed = default_grid_spec()
    assert cell_verdict(-0.5, 0.2, fixed) == VERDICT_STABLE
    assert quartic_max_real_root(-0.5, 0.2, 0.5) > 0.0
    multi = GridSpec((-5.0, 5.0, 2), (-5.0, 5.0, 2), (0.1, 0.5), FOR_ALL_T)
    assert cell_verdict(-0.5, 0.2, multi) == VERDICT_UNSTABLE


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_all_unstable_quadrant():
    spec = GridSpec((0.5, 1.0, 2), (0.5, 1.0, 2), (0.1,))
    grid = sweep(spec)
    assert grid.stable_fraction == 0.0
    assert all(v == VERDICT_UNSTABLE for row in grid.verdicts for v in row)


def test_sweep_matches_cell_verdict():
    spec = GridSpec((-1.0, 1.0, 5), (-0.4, 0.4, 5), (0.1,))
    grid = sweep(spec)
    kps = spec.kp_values()
    alphas = spec.alpha_values()
    stable = 0
    for i, kp in enumerate(kps):
        for j, alpha in enumerate(alphas):
            v = cell_verdict(float(kp), float(alpha), spec)
            assert grid.verdicts[i][j] == v
            stable += v == VERDICT_STABLE
    assert grid.stable_fraction == stable / 25
    # the middle alpha column is excluded, never stable
    assert all(grid.verdicts[i][2] == VERDICT_EXCLUDED for i in range(5))
    # grids compare by spec and codes
    assert sweep(spec) == grid
    assert sweep(GridSpec((-1.0, 1.0, 5), (-0.4, 0.4, 5), (0.5,))) != grid


_VERDICT_CONSTANTS = (VERDICT_STABLE, VERDICT_UNSTABLE, VERDICT_MARGINAL, VERDICT_EXCLUDED)


def _assert_sweep_equals_cell_verdict(spec):
    grid = sweep(spec)
    expected = [[cell_verdict(kp, alpha, spec) for alpha in spec.alpha_values().tolist()]
                for kp in spec.kp_values().tolist()]
    assert grid.verdicts == expected
    cells = len(expected) * len(expected[0])
    assert grid.stable_fraction == sum(row.count(VERDICT_STABLE) for row in expected) / cells
    # each verdict's count, from the vector codes, equals a recount
    assert grid.counts == {v: sum(row.count(v) for row in expected)
                           for v in _VERDICT_CONSTANTS}
    assert list(grid.counts) == list(_VERDICT_CONSTANTS)
    # verdicts share the four string constants instead of holding copies
    assert all(any(v is c for c in _VERDICT_CONSTANTS) for row in grid.verdicts for v in row)
    return grid


@pytest.mark.parametrize("spec,marginals", [
    # the kp = 0 row (c0 = 0) ends in a zero s^0 row: 9 of its cells are
    # marginal; the one cell with a near-zero d1, (0.25, 0.95), has b1 < 0
    (default_grid_spec(), 9),
    (default_all_t_grid_spec(), 0),
    (GridSpec((-5.0, 5.0, 301), (-5.0, 5.0, 101), (0.37,)), 3),
    # T = 2: c3 = 2T - T^2 is a lone zero in every cell, the kp = 0.25 row
    # has a zero s^3 row (c3 = c1 = 0) and, at alpha = 0.5, a lone zero b1
    (default_grid_spec(2.0), 0),
    # T = 2 makes c3 = 0 a lone zero; where kp / alpha <= -1e9 the other
    # coefficients dwarf c4 = 4, so b1 = c2 - c4*c1/eps stays positive and
    # the table has no sign change: 6 of the 9 cells are marginal
    (GridSpec((-1e6, -1e5, 3), (1e-4, 1e-3, 3), (2.0,)), 6),
    # these maps' degenerate tables: a d1 within the zero tolerance (a zero
    # s^1 row) between a positive b1 and a negative c0, a zero s^2 row
    # [b1, c0] ((0, -1) at T = 1.5, (0, -3) at T = 1.75) and b1 ~ -9e-16
    # ((0, 0.2) at T = 0.75)
    (default_grid_spec(0.75), 4),
    (default_grid_spec(1.0), 0),
    (default_grid_spec(1.25), 0),
    (default_grid_spec(1.5), 0),
    (default_grid_spec(1.75), 0),
    # c4 = T^2 = 1e-6 is trimmed against kp / alpha in all but 19 cells,
    # which are classified as the scalar's cubic; the kp = 0 row is marginal
    (GridSpec((-5.0, 5.0, 201), (1e-8, 1e-6, 201), (1e-3,)), 201),
], ids=["default-fixed-t", "default-all-t", "301x101", "default-t2", "t2-marginal",
        "default-t0.75", "default-t1", "default-t1.25", "default-t1.5", "default-t1.75",
        "small-alpha"])
def test_sweep_equals_cell_verdict_on_full_grids(monkeypatch, spec, marginals):
    # the sweep hands no cell of these maps to cell_verdict
    sent = []
    real = stabmap.cell_verdict
    monkeypatch.setattr(stabmap, "cell_verdict",
                        lambda kp, alpha, spec: sent.append((kp, alpha)) or real(kp, alpha, spec))
    grid = _assert_sweep_equals_cell_verdict(spec)
    assert sent == []
    assert grid.counts[VERDICT_MARGINAL] == marginals


def test_t2_map_hands_only_its_degenerate_rows_to_the_scalar_table(monkeypatch):
    # at T = 2, c3 = 2T - T^2 is exactly 0 in every cell; routh_block
    # applies the scalar's rules to that lone zero, the kp = 0 row's zero
    # c0 and the kp = 0.25 row's zero s^3 row (c1 = 0), so no cell reaches
    # cell_verdict, and the degenerate rows' verdicts equal the scalar table's
    calls = []
    real = stabmap.cell_verdict
    monkeypatch.setattr(stabmap, "cell_verdict",
                        lambda kp, alpha, spec: calls.append(kp) or real(kp, alpha, spec))
    spec = default_grid_spec(2.0)
    grid = sweep(spec)
    assert calls == []
    kps = spec.kp_values().tolist()
    alphas = spec.alpha_values().tolist()
    included = int(np.count_nonzero(np.abs(spec.alpha_values()) >= ALPHA_EXCLUSION))
    assert included > 0
    for kp in (0.0, 0.25):
        row = grid.verdicts[kps.index(kp)]
        assert row == [real(kp, alpha, spec) for alpha in alphas]
        assert sum(v != VERDICT_EXCLUDED for v in row) == included


def _assert_routh_block_equals_the_scalar_table(coeffs):
    """routh_block of the ascending coefficients (arrays and floats) flags
    no polynomial, and each one's verdict equals routh_hurwitz's; returns
    the count of each kind."""
    with np.errstate(all="ignore"):
        unstable, degenerate, flagged = routh_block(coeffs)
    assert not flagged.any()
    kinds = dict.fromkeys(StabilityKind, 0)
    arrays = np.broadcast_arrays(*coeffs)
    for ix in np.ndindex(unstable.shape):
        cs = [float(c[ix]) for c in arrays]
        verdict = routh_hurwitz(Polynomial(cs))
        assert (bool(unstable[ix]), bool(degenerate[ix])) == (
            verdict.kind is StabilityKind.UNSTABLE, verdict.degenerate), cs
        kinds[verdict.kind] += 1
    return kinds


def test_lone_zero_c3_closed_form_equals_the_scalar_table():
    # quartics 4s^4 + 0s^3 + c2 s^2 + c1 s + c0: c3 is a lone zero of the
    # s^3 row, and both verdicts occur
    rng = np.random.default_rng(7)
    shape = (60, 50)
    sign = lambda: rng.choice([-1.0, 1.0], shape)
    c0 = sign() * 10.0 ** rng.uniform(-6.0, 0.0, shape)
    c1 = sign() * 10.0 ** rng.uniform(-13.0, -6.0, shape)
    c2 = sign() * 10.0 ** rng.uniform(-1.0, 2.0, shape)
    kinds = _assert_routh_block_equals_the_scalar_table([c0, c1, c2, 0.0, 4.0])
    assert min(kinds[StabilityKind.UNSTABLE], kinds[StabilityKind.MARGINAL]) > 100


@pytest.mark.parametrize("c3", [0.0, -0.0, 3e-13])
def test_zero_s3_row_closed_form_equals_the_scalar_table(c3):
    # quartics 4s^4 + c3 s^3 + c2 s^2 + c1 s + c0 whose c3 (one float, as
    # 2T - T^2 is) and c1 are +0.0, -0.0 or within the zero tolerance, so
    # that the s^3 row is a zero row; a fifth of the c2 are 0.0, so that
    # the derivative row gives b1 a lone zero. Both verdicts occur
    rng = np.random.default_rng(13)
    shape = (60, 50)
    sign = lambda: rng.choice([-1.0, 1.0], shape)
    c0 = sign() * 10.0 ** rng.uniform(-3.0, 1.0, shape)
    c2 = np.where(rng.random(shape) < 0.2, 0.0, sign() * 10.0 ** rng.uniform(-3.0, 1.0, shape))
    tol = ROUTH_ZERO_REL_TOL * np.maximum(np.maximum(np.abs(c0), np.abs(c2)), 4.0)
    c1 = np.choose(rng.integers(0, 3, shape),
                   [np.zeros(shape), -np.zeros(shape),
                    sign() * rng.uniform(0.01, 0.99, shape) * tol])
    kinds = _assert_routh_block_equals_the_scalar_table([c0, c1, c2, c3, 4.0])
    assert min(kinds[StabilityKind.UNSTABLE], kinds[StabilityKind.MARGINAL]) > 100
    assert np.count_nonzero(c2 == 0.0) > 100


@pytest.mark.parametrize("c3", [0.7, -1.3])
def test_lone_zero_b1_closed_form_equals_the_scalar_table(c3):
    # quartics with c2 = c4*c1/c3 as the table computes it, so that
    # b1 = c2 - c4*c1/c3 is 0.0 and the scalar table pivots on an epsilon
    rng = np.random.default_rng(17)
    shape = (60, 50)
    sign = lambda: rng.choice([-1.0, 1.0], shape)
    c0, c1 = (sign() * 10.0 ** rng.uniform(-2.0, 2.0, shape) for _ in range(2))
    c4 = 0.25
    c2 = c4 * c1 / c3
    _assert_routh_block_equals_the_scalar_table([c0, c1, c2, c3, c4])


@pytest.mark.parametrize("t", [0.1, 0.37, 2.0])
def test_zero_c0_closed_form_equals_the_scalar_table(t):
    # quartics t^2 s^4 + (2t - t^2) s^3 + c2 s^2 + c1 s + c0 with c0 = +0.0,
    # -0.0 or 0 < |c0| <= the zero tolerance, mixed in one block: the s^0
    # row is a zero row
    rng = np.random.default_rng(11)
    shape = (60, 50)
    sign = lambda: rng.choice([-1.0, 1.0], shape)
    c3, c4 = 2.0 * t - t * t, t * t
    c1 = sign() * 10.0 ** rng.uniform(-2.0, 2.0, shape)
    c2 = sign() * 10.0 ** rng.uniform(-2.0, 2.0, shape)
    tiny = (sign() * rng.uniform(0.01, 0.99, shape) * ROUTH_ZERO_REL_TOL
            * np.maximum(np.maximum(np.abs(c1), np.abs(c2)), max(abs(c3), c4)))
    c0 = np.choose(rng.integers(0, 3, shape), [np.zeros(shape), -np.zeros(shape), tiny])
    kinds = _assert_routh_block_equals_the_scalar_table([c0, c1, c2, c3, c4])
    assert kinds[StabilityKind.UNSTABLE] > 100
    if t == 2.0:
        # the lone zero c3 pivots on a tiny epsilon, so b1 and d1 have
        # opposite signs: every cell is unstable
        assert kinds[StabilityKind.MARGINAL] == 0
    else:
        assert kinds[StabilityKind.MARGINAL] > 100


@st.composite
def _axes(draw):
    """(min, max, count) around zero, anywhere in [-10, 10], or with
    |bounds| near ALPHA_EXCLUSION."""
    kind = draw(st.sampled_from(("symmetric", "span", "exclusion")))
    count = draw(st.integers(2, 9))
    if kind == "symmetric":
        half = draw(st.floats(1e-3, 10.0))
        return (-half, half, 2 * (count // 2) + 1)
    if kind == "exclusion":
        half = draw(st.floats(0.5, 4.0)) * ALPHA_EXCLUSION
        return (-half, half, count)
    lo = draw(st.floats(-10.0, 10.0))
    return (lo, lo + draw(st.floats(1e-3, 20.0)), count)


_t_axes = st.lists(st.sampled_from((2.0, 1e-3, 0.1, 1.9)) | st.floats(1e-3, 3.0),
                   min_size=1, max_size=4).map(tuple)


@st.composite
def _grid_specs(draw):
    t_axis = draw(_t_axes)
    aggregation = draw(st.sampled_from((FIXED_T, FOR_ALL_T)))
    t_index = draw(st.integers(0, len(t_axis) - 1))
    return GridSpec(draw(_axes()), draw(_axes()), t_axis, aggregation, t_index)


@settings(max_examples=150, deadline=None)
@given(_grid_specs())
@example(GridSpec((-1.0, 1.0, 5), (-1.0, 1.0, 5), (2.0,)))  # 2T - T^2 = 0: zero pivot
@example(GridSpec((-1.0, 1.0, 5), (-1.0, 1.0, 5), (1e-3, 2.0), FOR_ALL_T))
# T^2 <= TRIM_REL_TOL * |kp/alpha|: the scalar table is a cubic's, stable
@example(GridSpec((1e6, 2e6, 2), (-0.2, 0.2, 2), (1e-3,)))
# on the Hurwitz boundary: the third Routh row is ~1e-15, a zero row, marginal
@example(GridSpec((-0.8258533954434202, 0.0, 2), (0.2, 1.0, 2), (0.1,)))
# every cell excluded: no cell is left for the later T's
@example(GridSpec((-1.0, 1.0, 5), (-5e-10, 5e-10, 2), (0.1, 2.0), FOR_ALL_T))
def test_sweep_equals_cell_verdict_on_drawn_grids(spec):
    _assert_sweep_equals_cell_verdict(spec)


@settings(max_examples=100, deadline=None)
@given(_axes(), _axes(), _t_axes, st.integers(0, 3))
@example((-1.0, 1.0, 5), (-1.0, 1.0, 5), (0.1, 2.0), 1)  # 2T - T^2 = 0: a lone zero pivot
@example((-1.0, 1.0, 5), (-2e-9, 2e-9, 5), (2.0, 0.1), 0)  # kp = 0 row, |alpha| ~ exclusion
def test_fixed_t_grid_equals_all_t_grid_over_its_one_t(kp_axis, alpha_axis, t_axis, k):
    # a fixed-t grid is the all-t grid over the one T it selects
    k %= len(t_axis)
    fixed = GridSpec(kp_axis, alpha_axis, t_axis, FIXED_T, k)
    one_t = GridSpec(kp_axis, alpha_axis, (t_axis[k],), FOR_ALL_T)
    a, b = sweep(fixed), sweep(one_t)
    assert a.verdicts == b.verdicts
    assert a.stable_fraction == b.stable_fraction
    for kp in fixed.kp_values().tolist():
        for alpha in fixed.alpha_values().tolist():
            assert cell_verdict(kp, alpha, fixed) == cell_verdict(kp, alpha, one_t)


@pytest.mark.parametrize("kp_axis,alpha_axis,t_axis,aggregation,cell", [
    ((1e300, 2e300, 2), (2e-9, 1.0, 2), (0.1,), FIXED_T, (1e300, 2e-9, 0.1)),
    ((-2e300, 0.0, 3), (-1.0, -2e-9, 2), (0.1,), FIXED_T, (-2e300, -2e-9, 0.1)),
    # kp / alpha is finite; T^2 kp / alpha overflows at the second T only
    ((1e300, 2e300, 2), (-1.0, -2e-3, 2), (0.1, 1e154), FOR_ALL_T, (2e300, -2e-3, 1e154)),
])
def test_grid_spec_rejects_overflowing_coefficients(kp_axis, alpha_axis, t_axis,
                                                    aggregation, cell):
    # the scalar table rejects a cell whose quartic overflows; GridSpec
    # rejects axes holding such a cell, naming them
    kp, alpha, t = cell
    with pytest.raises(PolynomialError, match="non-finite"):
        cell_verdict(kp, alpha, GridSpec((0.0, 1.0, 2), (0.0, 1.0, 2), (t,)))
    with pytest.raises(InvalidGrid, match="kp_axis / alpha_axis.*overflow"):
        GridSpec(kp_axis, alpha_axis, t_axis, aggregation)
    if aggregation == FOR_ALL_T:
        # a fixed-t map at the first T never forms the overflowing quartic
        sweep(GridSpec(kp_axis, alpha_axis, t_axis, FIXED_T, 0))


@pytest.mark.parametrize("kp_axis,alpha_axis", [
    ((-5.0, 5.0, 61), (-5.0, 5.0, 301)),
    ((0.5, 1.0, 3), (-5.0, 5.0, 2 * stabmap._BLOCK_CELLS + 1)),
])
def test_sweep_works_in_row_blocks(monkeypatch, kp_axis, alpha_axis):
    real = stabmap.routh_block
    sizes = []

    def spy(coeffs):
        sizes.append(np.broadcast(*coeffs).size)
        return real(coeffs)

    monkeypatch.setattr(stabmap, "routh_block", spy)
    sweep(GridSpec(kp_axis, alpha_axis, default_t_axis(), FOR_ALL_T))
    assert sizes and max(sizes) <= max(stabmap._BLOCK_CELLS, alpha_axis[2])


def test_sweep_names_a_cell_whose_routh_table_overflows():
    # c4*c1 = 1e240 * -2e120 overflows in the s^2 row; routh_block flags
    # the cell, and the scalar table has no verdict for it either
    spec = GridSpec((0.5, 1.0, 2), (0.5, 1.0, 2), (1e120,))
    with pytest.raises(InvalidGrid, match=r"cell kp = 0\.5, alpha = 0\.5 has no Routh"
                                          r" verdict: Routh table row s\^2 is not finite"):
        sweep(spec)


def test_sweep_names_a_cell_flagged_beside_cells_with_a_verdict():
    # at kp = -1e-10, c4*c1 = 1e206 * -2e102 overflows in the s^2 row; the
    # kp = 0 row in the same block has a finite table
    spec = GridSpec((-1e-10, 1e-10, 3), (-1e-9, 1e-9, 2), (1e103,))
    with pytest.raises(PolynomialError, match=r"row s\^2 is not finite"):
        cell_verdict(-1e-10, -1e-9, spec)
    assert cell_verdict(0.0, -1e-9, spec) == VERDICT_UNSTABLE
    with pytest.raises(InvalidGrid, match=r"cell kp = -1e-10, alpha = -1e-09 has no Routh"
                                          r" verdict: Routh table row s\^2 is not finite"):
        sweep(spec)


def test_sweep_names_a_cell_flagged_at_a_later_t():
    # all four cells are stable at T = 0.1; at T = 1e120 every table overflows
    spec = GridSpec((-0.5, -0.45, 2), (0.2, 0.25, 2), (0.1, 1e120), FOR_ALL_T)
    assert sweep(GridSpec(spec.kp_axis, spec.alpha_axis, (0.1,))).counts[VERDICT_STABLE] == 4
    with pytest.raises(InvalidGrid, match=r"cell kp = -0\.5, alpha = 0\.2 has no Routh"
                                          r" verdict: Routh table row s\^2 is not finite"):
        sweep(spec)


def test_sweep_refuses_a_flagged_cell_even_with_a_scalar_verdict(monkeypatch):
    monkeypatch.setattr(stabmap, "cell_verdict", lambda kp, alpha, spec: VERDICT_STABLE)
    with pytest.raises(InvalidGrid, match=r"cell kp = 0\.5, alpha = 0\.5 has no Routh"
                                          r" verdict: its vector Routh table is not finite"):
        sweep(GridSpec((0.5, 1.0, 2), (0.5, 1.0, 2), (1e120,)))


def test_sweep_ignores_flags_in_excluded_columns():
    # alpha = 1 stands in for the excluded alpha = 0 column, and its tables
    # trim to constants at this T; the other cells have verdicts
    spec = GridSpec((1e16, 2e16, 2), (-1e125, 1e125, 3), (1e-38,))
    with np.errstate(all="ignore"):
        flagged = routh_block(stabmap._ip_coeffs(1.0, spec.kp_values(), 1e-38))[2]
    assert flagged.all()
    _assert_sweep_equals_cell_verdict(spec)


# (min, max, count) axes of magnitude 10^e, |e| <= 200: across zero, or
# on one side of it
_EXTREME_AXES = st.builds(lambda e, ends, n: (ends[0] * 10.0 ** e, ends[1] * 10.0 ** e, n),
                          st.sampled_from(range(-200, 201)),
                          st.sampled_from([(-1.0, 1.0), (0.5, 1.0), (-1.0, -0.5)]),
                          st.integers(2, 5))


@settings(max_examples=150, deadline=None)
@example(kp_axis=(0.5, 1.0, 2), alpha_axis=(0.5, 1.0, 2), t=1e120)  # a table overflows
@example(kp_axis=(1e16, 2e16, 2), alpha_axis=(0.5, 1.0, 2), t=1e-38)  # trims to a constant
@example(kp_axis=(-1e-10, 1e-10, 3), alpha_axis=(-1e-9, 1e-9, 2), t=1e103)  # flagged beside kp = 0
@given(kp_axis=_EXTREME_AXES, alpha_axis=_EXTREME_AXES,
       t=st.sampled_from(range(-160, 161)).map(lambda e: 10.0 ** e))
def test_every_flagged_cell_has_no_scalar_verdict(kp_axis, alpha_axis, t):
    # the sweep refuses a grid at its first flagged cell, rather than
    # asking the scalar table for a verdict, on this premise; a grid
    # without one sweeps to cell_verdict's verdicts
    try:
        spec = GridSpec(kp_axis, alpha_axis, (t,))
    except InvalidGrid:
        assume(False)
    kps = spec.kp_values()
    alphas = spec.alpha_values()
    alphas = alphas[np.abs(alphas) >= ALPHA_EXCLUSION]
    with np.errstate(all="ignore"):
        flagged = routh_block(stabmap._ip_coeffs(alphas, kps[:, None], t))[2]
    for i, j in np.argwhere(flagged):
        with pytest.raises(PolynomialError):
            cell_verdict(float(kps[i]), float(alphas[j]), spec)
    if flagged.any():
        with pytest.raises(InvalidGrid, match="has no Routh verdict"):
            sweep(spec)
    else:
        _assert_sweep_equals_cell_verdict(spec)


def test_all_t_stable_set_within_fixed_t():
    axes = ((-2.0, 2.0, 21), (-2.0, 2.0, 21))
    fixed = sweep(GridSpec(axes[0], axes[1], (0.1,)))
    allt = sweep(GridSpec(axes[0], axes[1], (0.1, 0.5), FOR_ALL_T))
    for i in range(21):
        for j in range(21):
            if allt.verdicts[i][j] == VERDICT_STABLE:
                assert fixed.verdicts[i][j] == VERDICT_STABLE
    assert allt.stable_fraction <= fixed.stable_fraction


# ---------------------------------------------------------------------------
# Export


def test_export_fixed_t_format(tmp_path):
    grid = sweep(GridSpec((0.5, 1.0, 2), (0.5, 1.0, 2), (0.1,)))
    path = tmp_path / "grid.csv"
    export_grid(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "kp,alpha,verdict"
    assert len(lines) == 1 + 4 + 1
    assert lines[1] == "0.5,0.5,unstable"
    assert lines[-1] == "# stable_fraction = 0.0"


def test_export_all_t_format(tmp_path):
    grid = sweep(GridSpec((0.5, 1.0, 2), (0.5, 1.0, 2), (0.1, 0.5), FOR_ALL_T))
    path = tmp_path / "grid.csv"
    export_grid(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "kp,alpha,t,verdict"
    assert lines[1] == "0.5,0.5,all,unstable"


def test_export_deterministic_bytes(tmp_path):
    grid = sweep(GridSpec((-1.0, 1.0, 4), (-1.0, 1.0, 4), (0.1,)))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    export_grid(grid, a)
    export_grid(grid, b)
    assert a.read_bytes() == b.read_bytes()


def _export_grid_reference(grid, path):
    """Grid CSV written one cell at a time, as export_grid did: a frozen
    copy that export_grid must match byte for byte. Do not edit."""
    spec = grid.spec
    if spec.aggregation == FIXED_T:
        header, mid = "kp,alpha,verdict\n", ","
    else:
        header, mid = "kp,alpha,t,verdict\n", ",all,"
    verdicts = [VERDICT_STABLE, VERDICT_UNSTABLE, VERDICT_MARGINAL, VERDICT_EXCLUDED]
    tails = [["," + repr(alpha) + mid + v + "\n" for v in verdicts]
             for alpha in spec.alpha_values().tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write(header)
        for kp, row in zip(spec.kp_values().tolist(), grid.codes.tolist()):
            kp_field = repr(kp)
            fh.write(kp_field + kp_field.join([t[c] for t, c in zip(tails, row)]))
        fh.write("# stable_fraction = %s\n" % repr(grid.stable_fraction))


def _record_writes(monkeypatch):
    """Patch export_grid's open so that every write it makes is appended,
    as bytes, to the returned list."""
    writes = []

    class Recorder(io.FileIO):
        def write(self, data):
            writes.append(bytes(data))
            return super().write(data)

    monkeypatch.setattr(stabmap, "open", Recorder, raising=False)
    return writes


@pytest.mark.parametrize("spec,block_cells", [
    (default_grid_spec(), None),
    (default_all_t_grid_spec(), None),
    (GridSpec((-5.0, 5.0, 301), (-5.0, 5.0, 101), (0.37,)), None),
    (GridSpec((-1e6, -1e5, 3), (1e-4, 1e-3, 3), (2.0,)), None),
    # all four verdicts: an excluded alpha = 0 column, marginal cells in
    # the kp = 0 row
    (GridSpec((-0.5, 0.5, 3), (-0.4, 0.4, 5), (0.1,)), None),
    # 7 kp rows at 2 rows per block: four writes, the last of one row
    (GridSpec((-1.0, 1.0, 7), (-1.0, 1.0, 5), (0.1, 0.5), FOR_ALL_T), 12),
    # a block smaller than one kp row still writes a whole row
    (GridSpec((-0.5, 0.5, 3), (-0.4, 0.4, 5), (0.1,)), 2),
], ids=["default-fixed-t", "default-all-t", "301x101", "t2-marginal", "excluded-column",
        "several-blocks", "row-per-block"])
def test_export_grid_bytes_equal_the_per_cell_writer(tmp_path, monkeypatch, spec, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(stabmap, "_BLOCK_CELLS", block_cells)
    grid = sweep(spec)
    expected = tmp_path / "expected.csv"
    _export_grid_reference(grid, expected)
    writes = _record_writes(monkeypatch)
    path = tmp_path / "grid.csv"
    export_grid(grid, path)
    assert path.read_bytes() == expected.read_bytes()
    # a header, one write per block of whole kp rows, the summary line
    n_kp, n_alpha = grid.codes.shape
    rows_per_block = max(1, stabmap._BLOCK_CELLS // n_alpha)
    blocks = writes[1:-1]
    assert len(blocks) == -(-n_kp // rows_per_block)
    assert [block.count(b"\n") for block in blocks] == [
        n_alpha * min(rows_per_block, n_kp - start) for start in range(0, n_kp, rows_per_block)]
    if spec.alpha_axis == (-0.4, 0.4, 5):
        assert all(grid.counts.values())
        assert grid.verdicts[1][2:] == [VERDICT_EXCLUDED, VERDICT_MARGINAL, VERDICT_MARGINAL]


def test_export_grid_holds_no_per_cell_list(tmp_path):
    # the per-cell writer peaked at 8.58 MB on this grid, mostly the grid's
    # codes as one list of Python ints
    grid = sweep(GridSpec((-5.0, 5.0, 1001), (-5.0, 5.0, 1001), (0.1,)))
    grid.counts  # counted before: the count's temporaries are not the writer's
    tracemalloc.start()
    try:
        export_grid(grid, tmp_path / "grid.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("spec", [
    default_grid_spec(), default_all_t_grid_spec(),
    GridSpec((-5.0, 5.0, 201), (-5.0, 5.0, 201), (2.0,)),
    GridSpec((-5.0, 5.0, 301), (-5.0, 5.0, 101), (0.37,)),
], ids=["default-fixed-t", "default-all-t", "t2", "301x101"])
def test_counts_equal_bincount(spec):
    grid = sweep(spec)
    assert list(grid.counts.values()) == np.bincount(grid.codes.ravel(), minlength=4).tolist()


def test_counts_hold_no_wide_copy_of_the_codes():
    # bincount of the codes peaked at 8.0 MB on this grid, the codes as
    # 8-byte ints
    grid = sweep(GridSpec((-5.0, 5.0, 1001), (-5.0, 5.0, 1001), (0.1,)))
    tracemalloc.start()
    try:
        counts = grid.counts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == grid.codes.size
    assert peak <= 2_000_000


def test_export_io_failure(tmp_path):
    grid = sweep(GridSpec((0.5, 1.0, 2), (0.5, 1.0, 2), (0.1,)))
    with pytest.raises(OSError, match="grid.csv"):
        export_grid(grid, tmp_path / "missing" / "grid.csv")


# ---------------------------------------------------------------------------
# Gain bridge and root oracle


def test_ip_loop_for_cell_bridges_sign():
    spec, est = ip_loop_for_cell(1.5, 0.7, 0.3)
    assert spec.kind == "ip"
    assert spec.kp == -1.5
    assert spec.alpha == 0.7
    assert (est.nu, est.alpha, est.t_filter) == (1, 0.7, 0.3)
    assert est.variant == ANALYSIS_FORM
    assert est.plant_coeffs == (-1.0, 0.0, 1.0)


def test_quartic_max_real_root_known_cells():
    assert abs(quartic_max_real_root(-0.5, 0.2, 0.1) - (-0.126)) < 5e-3
    assert quartic_max_real_root(1.0, 1.0, 0.1) > 0.5


def test_quartic_root_sign_matches_verdict():
    spec = default_grid_spec()
    rng = np.random.default_rng(43)
    for _ in range(40):
        kp = float(rng.uniform(-5.0, 5.0))
        alpha = float(rng.uniform(0.1, 5.0)) * float(rng.choice((-1.0, 1.0)))
        m = quartic_max_real_root(kp, alpha, 0.1)
        if abs(m) < 1e-6:
            continue
        v = cell_verdict(kp, alpha, spec)
        assert (v == VERDICT_STABLE) == (m < 0.0)


def _np_roots_max(kp, alpha, t):
    # the root oracle as it was: np.roots of the trimmed quartic, one cell a call
    return max_real_part_of_roots(Polynomial(stabmap._ip_coeffs(alpha, kp, t)))


@pytest.mark.parametrize("spec,scalar_cells", [
    # the kp = 0 row's 200 non-excluded cells have c0 = 0, a zero root
    *((GridSpec(DEFAULT_AXIS, DEFAULT_AXIS, (t,)), 200) for t in (0.05, 0.1, 0.5, 1.0, 1.5)),
    # T^2 = 1e-6 trims against max |c_k| (|c0| = |kp| / alpha up to 5e8) in
    # every cell but kp = 0.5, alpha = 1e-6
    (GridSpec((-5.0, 5.0, 21), (1e-8, 1e-6, 21), (1e-3,)), 21 * 21 - 1),
], ids=["t0.05", "t0.1", "t0.5", "t1.0", "t1.5", "tiny-alpha"])
def test_array_root_oracle_equals_np_roots_on_every_cell(monkeypatch, spec, scalar_cells):
    kps, alphas = spec.kp_values(), spec.alpha_values()
    (t,) = spec.t_axis
    i, j = np.divmod(np.arange(kps.size * alphas.size), alphas.size)
    kept = np.abs(alphas[j]) >= ALPHA_EXCLUSION
    i, j = i[kept], j[kept]
    real = stabmap.max_real_part_of_roots
    scalar = []
    monkeypatch.setattr(stabmap, "max_real_part_of_roots",
                        lambda p: scalar.append(p) or real(p))
    roots = stabmap._max_real_roots(kps[i], alphas[j], t)
    expected = [_np_roots_max(kp, alpha, t) for kp, alpha in zip(kps[i].tolist(),
                                                                  alphas[j].tolist())]
    assert np.array(roots).tobytes() == np.array(expected).tobytes()
    assert len(scalar) == scalar_cells
    # the one-cell case, on a cell of each path
    for k in (0, np.flatnonzero(kps[i] == 0.0)[0]):
        assert quartic_max_real_root(float(kps[i[k]]), float(alphas[j[k]]), t) == expected[k]


def test_array_root_oracle_sends_a_failed_batch_to_the_scalar_path(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    kps, alphas = np.array([-1.0, 0.5, 2.0]), np.array([0.3, 1.0, -2.0])
    expected = [_np_roots_max(kp, alpha, 0.1) for kp, alpha in zip(kps, alphas)]
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    assert stabmap._max_real_roots(kps, alphas, 0.1) == expected


# ---------------------------------------------------------------------------
# Cross-validation


def _small_grid():
    # 5x4 patch straddling the stability boundary at T=0.1
    return sweep(GridSpec((-1.0, 1.0, 5), (0.1, 1.0, 4), (0.1,)))


def test_cross_validate_rejects_bad_inputs():
    allt = sweep(GridSpec((0.5, 1.0, 2), (0.5, 1.0, 2), (0.1, 0.5), FOR_ALL_T))
    with pytest.raises(InvalidGrid):
        cross_validate(allt, samples=2)
    fixed = sweep(GridSpec((0.5, 1.0, 2), (0.5, 1.0, 2), (0.1,)))
    with pytest.raises(InvalidGrid):
        cross_validate(fixed, samples=0)
    for samples in (2.5, 2.0, "2", None):
        with pytest.raises(InvalidGrid, match="samples"):
            cross_validate(fixed, samples=samples)
    for band in (math.nan, math.inf, -math.inf, -0.01):
        with pytest.raises(InvalidGrid, match="boundary_band"):
            cross_validate(fixed, samples=2, boundary_band=band)
    # a band that leaves no cell to sample gives no agreement rate
    with pytest.raises(InvalidGrid, match=r"boundary_band = 1000000000\.0"):
        cross_validate(sweep(GridSpec((-1, 1, 5), (-1, 1, 5), (0.1,))), 5, 1,
                       boundary_band=1e9)
    assert len(cross_validate(fixed, samples=np.int64(1), boundary_band=0.0).checks) == 1


def test_cross_validate_small_grid():
    report = cross_validate(_small_grid(), samples=6, seed=2)
    assert isinstance(report, AgreementReport)
    assert len(report.checks) == 6
    verdicts = {c.verdict for c in report.checks}
    assert verdicts == {VERDICT_STABLE, VERDICT_UNSTABLE}
    for c in report.checks:
        assert abs(c.max_root_real_part) > report.boundary_band
        assert c.agrees == (c.diverged == (c.verdict == VERDICT_UNSTABLE))
    assert report.agreement_rate == sum(c.agrees for c in report.checks) / 6
    # disagreements can only come from slow growth that a 20 s run cannot
    # push past the blow-up threshold, never from a stable cell diverging
    for c in report.checks:
        if not c.agrees:
            assert c.verdict == VERDICT_UNSTABLE
            assert not c.diverged
            assert 0.0 < c.max_root_real_part < 0.55
    assert "cross-validation" in report.summary()


def test_cross_validate_deterministic():
    grid = _small_grid()
    a = cross_validate(grid, samples=4, seed=9)
    b = cross_validate(grid, samples=4, seed=9)
    assert [(c.kp, c.alpha) for c in a.checks] == [(c.kp, c.alpha) for c in b.checks]


@pytest.mark.parametrize("grid,samples,seed,expected", [
    # no cell of this grid is stable, and the unstable pool runs out at 19
    (GridSpec((-1, 1, 5), (-1, 1, 5), (0.1,)), 50, 2, [
        (-0.5, 0.5, "unstable"), (1.0, 0.5, "unstable"), (-0.5, 1.0, "unstable"),
        (-1.0, 0.5, "unstable"), (0.0, 1.0, "unstable"), (-1.0, -1.0, "unstable"),
        (1.0, -0.5, "unstable"), (1.0, 1.0, "unstable"), (1.0, -1.0, "unstable"),
        (0.0, -0.5, "unstable"), (0.5, -1.0, "unstable"), (-0.5, -0.5, "unstable"),
        (0.5, 1.0, "unstable"), (0.5, -0.5, "unstable"), (0.5, 0.5, "unstable"),
        (-1.0, 1.0, "unstable"), (-0.5, -1.0, "unstable"), (0.0, -1.0, "unstable"),
        (-1.0, -0.5, "unstable")]),
    # the stable pool runs out after two cells; unstable cells fill the rest
    (GridSpec((-1.0, 1.0, 5), (0.1, 1.0, 4), (0.1,)), 50, 3, [
        (-0.5, 0.1, "stable"), (1.0, 0.1, "unstable"), (-1.0, 0.1, "stable"),
        (0.5, 0.1, "unstable"), (0.5, 0.7, "unstable"), (-1.0, 0.7, "unstable"),
        (1.0, 0.4, "unstable"), (-1.0, 1.0, "unstable"), (1.0, 1.0, "unstable"),
        (0.5, 1.0, "unstable"), (-1.0, 0.4, "unstable"), (0.5, 0.4, "unstable"),
        (-0.5, 0.7, "unstable"), (0.0, 1.0, "unstable"), (0.0, 0.7, "unstable"),
        (1.0, 0.7, "unstable"), (-0.5, 1.0, "unstable"), (-0.5, 0.4, "unstable")]),
    (default_grid_spec(), 10, 1, [
        (-3.95, 0.05000000000000071, "stable"), (-0.5, 0.8500000000000005, "unstable"),
        (-1.0999999999999996, 0.10000000000000053, "stable"),
        (1.2000000000000002, -3.15, "unstable"), (-0.09999999999999964, 0.25, "stable"),
        (-1.4, -0.34999999999999964, "unstable"), (-2.0, 0.05000000000000071, "stable"),
        (0.10000000000000053, -3.8499999999999996, "unstable"),
        (-4.65, 0.05000000000000071, "stable"), (-1.15, -4.05, "unstable")]),
], ids=["both-pools-run-out", "stable-pool-runs-out", "default-grid"])
def test_cross_validate_sample_order_is_pinned(grid, samples, seed, expected):
    report = cross_validate(sweep(grid), samples, seed)
    assert [(c.kp, c.alpha, c.verdict) for c in report.checks] == expected


def test_cross_validate_flags_equal_the_simulated_flags(monkeypatch):
    # every cell cross_validate picks on the default map at 40 seeds: its
    # flag, read off the loop's matrix without one simulated run (a spy
    # on run_closed_loop sees none), is run_closed_loop's own flag
    grid = sweep(default_grid_spec())
    real = sim.run_closed_loop
    runs = []
    monkeypatch.setattr(sim, "run_closed_loop",
                        lambda *args, **kwargs: runs.append(args) or real(*args, **kwargs))
    flags = {}
    for seed in range(40):
        for c in cross_validate(grid, 10, seed).checks:
            assert flags.setdefault((c.kp, c.alpha), c.diverged) is c.diverged
    assert runs == []
    assert 100 < sum(flags.values()) < len(flags) - 100

    def simulated(kp, alpha):
        controller, estimator = ip_loop_for_cell(kp, alpha, 0.1)
        return real(example_plant(1.0), controller, estimator,
                    ReferenceTrajectory.constant(0.0), NoiseModel(0.0), h=1e-3,
                    duration=20.0, y0=-0.05).diverged
    # the runs are independent, so they share the usable cores
    assert pool.run_jobs([functools.partial(simulated, kp, alpha)
                          for kp, alpha in flags]) == list(flags.values())


def _cross_validate_reference(grid, samples, seed, boundary_band=0.05):
    """cross_validate as it was before it batched its oracles: one np.roots
    per candidate cell, one (A, x1) per sampled loop. A frozen copy that
    cross_validate must match; do not edit but to follow a sim call's
    signature."""
    spec = grid.spec
    (t,) = spec.t_values()
    kps = spec.kp_values().tolist()
    alphas = spec.alpha_values().tolist()
    n_alpha = len(alphas)

    def off_band(verdict, flat):
        for ix in flat:
            i, j = divmod(int(ix), n_alpha)
            max_re = _np_roots_max(kps[i], alphas[j], t)
            if abs(max_re) > boundary_band:
                yield kps[i], alphas[j], verdict, max_re

    rng = np.random.default_rng(seed)
    pools = []
    for code, verdict in enumerate((VERDICT_STABLE, VERDICT_UNSTABLE)):
        flat = np.flatnonzero(grid.codes == code)
        pools.append(off_band(verdict, flat[rng.permutation(len(flat))]))
    picked = []
    while pools and len(picked) < samples:
        pool_ = pools.pop(0)
        cell = next(pool_, None)
        if cell is not None:
            picked.append(cell)
            pools.append(pool_)

    plant = example_plant(delta=1.0)
    loops = [(plant, *ip_loop_for_cell(kp, alpha, t)) for kp, alpha, _, _ in picked]
    n = sim.sample_count(1e-3, 20.0)
    flags = []
    for start in range(0, len(loops), 10):
        chunk = loops[start:start + 10]
        a, x1 = (np.concatenate(stack) for stack in zip(*(
            sim.loop_matrices([(*loop, -0.05, 0.0)], 1e-3) for loop in chunk)))
        flags += sim._clear_flags(a, x1, [-0.05] * len(chunk), n)
    flags = [sim.run_closed_loop(*loop, ReferenceTrajectory.constant(0.0), NoiseModel(0.0),
                                 1e-3, 20.0, -0.05, 0.0).diverged if flag is None else flag
             for loop, flag in zip(loops, flags)]
    checks = [SampleCheck(kp, alpha, t, verdict, max_re, diverged,
                          diverged == (verdict == VERDICT_UNSTABLE))
              for (kp, alpha, verdict, max_re), diverged in zip(picked, flags)]
    return AgreementReport(checks, sum(c.agrees for c in checks) / len(checks), boundary_band)


@pytest.mark.parametrize("t_filter", [0.05, 0.1, 0.5, 1.0, 1.5])
def test_cross_validate_equals_the_per_cell_reference(t_filter):
    grid = sweep(GridSpec(DEFAULT_AXIS, DEFAULT_AXIS, (t_filter,)))
    for seed in range(40):
        for samples in (10, 50):
            report = cross_validate(grid, samples, seed)
            assert report == _cross_validate_reference(grid, samples, seed)


# ---------------------------------------------------------------------------
# Cross-validation across cores


def test_usable_cores_counts_the_affinity_set():
    expected = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
    assert pool.usable_cores() == expected >= 1


@pytest.mark.parametrize("grid,samples,seed", [
    # the calls of test_cross_validate_sample_order_is_pinned, and the
    # default grid at another seed
    (GridSpec((-1, 1, 5), (-1, 1, 5), (0.1,)), 50, 2),
    (GridSpec((-1.0, 1.0, 5), (0.1, 1.0, 4), (0.1,)), 50, 3),
    (default_grid_spec(), 10, 1),
    (default_grid_spec(), 10, 0),
], ids=["both-pools-run-out", "stable-pool-runs-out", "default-grid", "default-grid-seed0"])
def test_cross_validate_reports_do_not_depend_on_the_core_count(monkeypatch, grid,
                                                                samples, seed):
    # the flags come from the loops' matrices in this process: no process
    # is started at one core or at two, and the report is the same
    grid = sweep(grid)
    forbid_processes(monkeypatch)
    monkeypatch.setattr(pool, "usable_cores", lambda: 1)
    one_core = cross_validate(grid, samples, seed)
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    two_cores = cross_validate(grid, samples, seed)
    assert two_cores.checks == one_core.checks
    assert two_cores.agreement_rate == one_core.agreement_rate
    assert two_cores.boundary_band == one_core.boundary_band
    assert two_cores.summary() == one_core.summary()


@pytest.mark.parametrize("cores,samples", [(1, 6), (2, 1)],
                         ids=["one-core", "one-sample"])
def test_cross_validate_with_one_worker_starts_no_process(monkeypatch, cores, samples):
    expected = cross_validate(_small_grid(), samples=samples, seed=2)
    monkeypatch.setattr(pool, "usable_cores", lambda: cores)
    forbid_processes(monkeypatch)
    assert cross_validate(_small_grid(), samples=samples, seed=2) == expected


def test_cross_validate_with_other_threads_running_starts_no_process(monkeypatch):
    expected = cross_validate(_small_grid(), samples=6, seed=2)
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    forbid_processes(monkeypatch)
    with another_thread_running():
        report = cross_validate(_small_grid(), samples=6, seed=2)
    assert report == expected


def test_package_import_leaves_multiprocessing_unloaded():
    code = ("import sys, ultralocal, ultralocal.cli, ultralocal.pool, ultralocal.stabmap; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"
