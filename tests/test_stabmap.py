"""Tests for the stability-map sweep and its simulation cross-check."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from forks import (another_thread_running, count_forks, forbid_processes, needs_fork,
                   no_child_left)
from ultralocal import pool, stabmap
from ultralocal.control import ANALYSIS_FORM
from ultralocal.poly import PolynomialError
from ultralocal.stabmap import (
    ALPHA_EXCLUSION,
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
    IoFailure,
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


_VERDICT_CONSTANTS = (VERDICT_STABLE, VERDICT_UNSTABLE, VERDICT_MARGINAL, VERDICT_EXCLUDED)


def _assert_sweep_equals_cell_verdict(spec):
    grid = sweep(spec)
    expected = [[cell_verdict(kp, alpha, spec) for alpha in spec.alpha_values().tolist()]
                for kp in spec.kp_values().tolist()]
    assert grid.verdicts == expected
    cells = len(expected) * len(expected[0])
    assert grid.stable_fraction == sum(row.count(VERDICT_STABLE) for row in expected) / cells
    # verdicts share the four string constants instead of holding copies
    assert all(any(v is c for c in _VERDICT_CONSTANTS) for row in grid.verdicts for v in row)


@pytest.mark.parametrize("spec", [
    default_grid_spec(),
    default_all_t_grid_spec(),
    GridSpec((-5.0, 5.0, 301), (-5.0, 5.0, 101), (0.37,)),
], ids=["default-fixed-t", "default-all-t", "301x101"])
def test_sweep_equals_cell_verdict_on_full_grids(spec):
    _assert_sweep_equals_cell_verdict(spec)


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
def test_sweep_equals_cell_verdict_on_drawn_grids(spec):
    _assert_sweep_equals_cell_verdict(spec)


@settings(max_examples=100, deadline=None)
@given(_axes(), _axes(), _t_axes, st.integers(0, 3))
@example((-1.0, 1.0, 5), (-1.0, 1.0, 5), (0.1, 2.0), 1)  # 2T - T^2 = 0: every cell flagged
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
    real = stabmap._routh_block
    sizes = []

    def spy(kp, alpha, t):
        sizes.append(kp.size * alpha.size)
        return real(kp, alpha, t)

    monkeypatch.setattr(stabmap, "_routh_block", spy)
    sweep(GridSpec(kp_axis, alpha_axis, default_t_axis(), FOR_ALL_T))
    assert sizes and max(sizes) <= max(stabmap._BLOCK_CELLS, alpha_axis[2])


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


def test_export_io_failure(tmp_path):
    grid = sweep(GridSpec((0.5, 1.0, 2), (0.5, 1.0, 2), (0.1,)))
    with pytest.raises(IoFailure):
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


# ---------------------------------------------------------------------------
# Cross-validation across cores


class WorkerFailure(RuntimeError):
    pass


def test_usable_cores_counts_the_affinity_set():
    expected = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
    assert pool.usable_cores() == expected >= 1


@needs_fork
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
    grid = sweep(grid)
    monkeypatch.setattr(pool, "usable_cores", lambda: 1)
    one_core = cross_validate(grid, samples, seed)
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    forks = count_forks(monkeypatch)
    two_cores = cross_validate(grid, samples, seed)
    assert len(forks) == 1
    assert no_child_left()
    assert two_cores.checks == one_core.checks
    assert two_cores.agreement_rate == one_core.agreement_rate
    assert two_cores.boundary_band == one_core.boundary_band
    assert two_cores.summary() == one_core.summary()


@needs_fork
def test_cross_validate_worker_exception_reaches_the_caller(monkeypatch):
    test_pid = os.getpid()
    real_run = stabmap.closed_loop_diverges

    def fail_in_the_child(*args, **kwargs):
        # the forked child runs the first share of the runs, this process
        # the last; only the child's runs fail
        if os.getpid() != test_pid:
            raise WorkerFailure("run failed")
        return real_run(*args, **kwargs)
    # the forked child inherits the patched module
    monkeypatch.setattr(stabmap, "closed_loop_diverges", fail_in_the_child)
    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    forks = count_forks(monkeypatch)
    with pytest.raises(WorkerFailure, match="run failed"):
        cross_validate(_small_grid(), samples=6, seed=2)
    assert len(forks) == 1
    assert no_child_left()


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
