"""Tests for polynomial utilities and the Routh-Hurwitz engine."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ultralocal.poly import (
    MAX_DEGREE,
    ROUTH_ZERO_REL_TOL,
    ConvergenceFailure,
    DegreeZero,
    InvalidParams,
    NotMonic,
    Polynomial,
    PolynomialError,
    StabilityKind,
    WrongDegree,
    ZeroInputGain,
    ZeroPolynomial,
    expand_pole,
    ipd_gains_from_target,
    max_real_part_of_roots,
    pid_gains_from_target,
    routh_block,
    routh_hurwitz,
)


# ---------------------------------------------------------------------------
# Polynomial container


def test_polynomial_trims_trailing_near_zeros():
    p = Polynomial((1.0, 2.0, 1e-30))
    assert p.degree == 1
    assert p.coeffs == (1.0, 2.0)


def test_polynomial_keeps_relative_scale():
    # trailing coefficient is small in absolute terms but not relative ones
    p = Polynomial((1e-20, 2e-20))
    assert p.degree == 1


def test_polynomial_zero():
    p = Polynomial((0.0, 0.0))
    assert p.is_zero
    assert p.coeffs == (0.0,)


def test_polynomial_immutable():
    p = Polynomial((1.0, 1.0))
    with pytest.raises(AttributeError):
        p.coeffs = (2.0,)


def test_polynomial_rejects_non_finite():
    with pytest.raises(PolynomialError):
        Polynomial((1.0, float("nan")))
    with pytest.raises(PolynomialError):
        Polynomial((float("inf"), 1.0))


# ---------------------------------------------------------------------------
# Routh-Hurwitz verdicts


def test_routh_simple_stable():
    # (s + 1)^3 = s^3 + 3s^2 + 3s + 1
    v = routh_hurwitz(Polynomial((1.0, 3.0, 3.0, 1.0)))
    assert v.kind is StabilityKind.HURWITZ
    assert v.is_hurwitz
    assert v.right_half_plane_count == 0
    assert not v.degenerate


def test_routh_simple_unstable():
    # s - 1 has one right half-plane root
    v = routh_hurwitz(Polynomial((-1.0, 1.0)))
    assert v.kind is StabilityKind.UNSTABLE
    assert v.right_half_plane_count == 1


def test_routh_unstable_count_two():
    # s^2 - s + 1: conjugate pair at 0.5 +/- j sqrt(3)/2
    v = routh_hurwitz(Polynomial((1.0, -1.0, 1.0)))
    assert v.kind is StabilityKind.UNSTABLE
    assert v.right_half_plane_count == 2


def test_routh_marginal_imaginary_pair():
    # s^3 + s^2 + s + 1 = (s + 1)(s^2 + 1): roots -1, +/-j
    v = routh_hurwitz(Polynomial((1.0, 1.0, 1.0, 1.0)))
    assert v.kind is StabilityKind.MARGINAL
    assert v.degenerate


def test_routh_marginal_pure_imaginary():
    v = routh_hurwitz(Polynomial((1.0, 0.0, 1.0)))  # s^2 + 1
    assert v.kind is StabilityKind.MARGINAL


def test_routh_zero_row_symmetric_unstable():
    # s^2 - 1 = (s - 1)(s + 1): zero-row path, one RHP root
    v = routh_hurwitz(Polynomial((-1.0, 0.0, 1.0)))
    assert v.kind is StabilityKind.UNSTABLE
    assert v.right_half_plane_count == 1
    assert v.degenerate


def test_routh_lone_zero_first_column():
    # s^4 + s^3 + 2s^2 + 2s + 1 hits a lone zero pivot; roots include an
    # imaginary-axis-adjacent quartet, verdict must not be Hurwitz
    p = Polynomial((1.0, 2.0, 2.0, 1.0, 1.0))
    v = routh_hurwitz(p)
    roots_max = max_real_part_of_roots(p)
    assert v.is_hurwitz == (roots_max < 0)


def test_routh_negative_leading_normalised():
    # -(s + 1)^2: same root set, still Hurwitz
    v = routh_hurwitz(Polynomial((-1.0, -2.0, -1.0)))
    assert v.is_hurwitz


def test_routh_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        routh_hurwitz(Polynomial((0.0,)))


def test_routh_rejects_degree_zero():
    with pytest.raises(DegreeZero):
        routh_hurwitz(Polynomial((4.0,)))


def test_routh_rejects_degree_above_cap():
    coeffs = (0.0,) * (MAX_DEGREE + 1) + (1.0,)
    with pytest.raises(PolynomialError):
        routh_hurwitz(Polynomial(coeffs))


def test_routh_agrees_with_root_oracle():
    # random polynomials away from the imaginary axis; verdicts must match
    # the sign of the dominant root real part
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 400:
        deg = int(rng.integers(1, 7))
        coeffs = rng.uniform(-10.0, 10.0, size=deg + 1)
        if abs(coeffs[-1]) < 1e-3:
            continue
        p = Polynomial(tuple(coeffs))
        if p.degree != deg:
            continue
        m = max_real_part_of_roots(p)
        if abs(m) <= 1e-6:
            continue
        v = routh_hurwitz(p)
        assert v.is_hurwitz == (m < 0), "disagrees at coeffs=%r" % (p.coeffs,)
        checked += 1


def test_routh_counts_match_root_oracle():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 200:
        deg = int(rng.integers(2, 7))
        coeffs = rng.uniform(-10.0, 10.0, size=deg + 1)
        if abs(coeffs[-1]) < 1e-3:
            continue
        p = Polynomial(tuple(coeffs))
        if p.degree != deg:
            continue
        roots = np.roots(p.coeffs[::-1])
        if np.min(np.abs(roots.real)) <= 1e-6:
            continue
        v = routh_hurwitz(p)
        if v.degenerate:
            continue
        assert v.right_half_plane_count == int(np.sum(roots.real > 0))
        checked += 1


@st.composite
def _padded_polynomials(draw):
    """Ascending coefficients of a polynomial of degree 1-6, padded with
    0.0 to 7: small integers (zero rows), +-0.0, floats, and entries
    within ROUTH_ZERO_REL_TOL of the largest (lone zeros, trimming)."""
    degree = draw(st.integers(1, 6))
    cs = draw(st.lists(st.integers(-3, 3).map(float) | st.sampled_from((0.0, -0.0))
                       | st.floats(-1e3, 1e3), min_size=degree + 1, max_size=degree + 1))
    scale = max(map(abs, cs))
    for k in draw(st.sets(st.integers(0, degree))):
        cs[k] = draw(st.floats(-1.5, 1.5)) * ROUTH_ZERO_REL_TOL * scale
    return cs + [0.0] * (6 - degree)


@st.composite
def _extreme_polynomials(draw):
    """_padded_polynomials with up to three coefficients, padding included,
    swapped for huge, infinite, nan, tiny or signed-zero ones."""
    cs = draw(_padded_polynomials())
    for k in draw(st.sets(st.integers(0, len(cs) - 1), max_size=3)):
        cs[k] = draw(st.sampled_from((1e300, -1e300, 1.7e308, math.inf, -math.inf, math.nan,
                                      1e-300, 0.0, -0.0)))
    return cs


@settings(max_examples=200, deadline=None)
@given(st.lists(_padded_polynomials() | _extreme_polynomials(), min_size=1, max_size=16))
@example([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]])  # (s + 1)(s^2 + 1): a zero s^1 row
@example([[1.0, 2.0, 2.0, 1.0, 1.0, 0.0, 0.0]])  # a lone zero pivot
@example([[1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0],  # (s^2 + 1)^2: a zero s^3 row
          [-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 0.0],  # a negative leading coefficient
          [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
# a zero s^2 row whose derivative's 3 * 1.7e308 overflows: routh_hurwitz
# raises, and a lone-zero rule that took the inf for a zero read MARGINAL
@example([[2.0, 0.950401570385296, 1.0, 1.7e308, 0.0, 0.0, 0.0]])
def test_routh_block_equals_routh_hurwitz(polynomials):
    # one routh_block call over the drawn polynomials, of mixed degrees, as
    # coefficient arrays; a coefficient that all of them share goes in as
    # a float, as the sweep's T-only coefficients do
    columns = np.array(polynomials).T
    coeffs = [float(c[0]) if (c == c[0]).all() else c for c in columns]
    with np.errstate(all="ignore"):
        out = routh_block(coeffs)
    # all floats (one polynomial) give 0-d results
    assert [x.shape for x in out] == [np.broadcast(*coeffs).shape] * 3
    unstable, degenerate, flagged = (np.broadcast_to(x, len(polynomials)) for x in out)
    for i, cs in enumerate(polynomials):
        try:
            verdict = routh_hurwitz(Polynomial(cs))
        except PolynomialError:
            # the zero polynomial and constants have no verdict
            assert flagged[i]
            continue
        assert not flagged[i]
        assert (unstable[i], degenerate[i]) == (
            verdict.kind is StabilityKind.UNSTABLE, verdict.degenerate), cs


def test_routh_block_flags_non_finite_tables():
    # a non-finite coefficient, and a table entry that overflows
    # (b1 = c2 - c4*c1/c3 with c4*c1 = 1e600)
    coeffs = [1.0, np.array([np.nan, 1.0, 1e300]), np.array([1.0, math.inf, 1.0]),
              np.array([1.0, 1.0, 1e290]), np.array([1.0, 1.0, 1e300])]
    with np.errstate(all="ignore"):
        flagged = routh_block(coeffs)[2]
    assert flagged.tolist() == [True, True, True]


@settings(max_examples=300, deadline=None)
@given(st.lists(_extreme_polynomials(), min_size=2, max_size=16))
# the iP quartic at kp = -1e-10 (b1 overflows) and kp = 0, alpha = -1e-9,
# T = 1e103: the first was flagged alone but not beside the second
@example([[-0.09999999999999999, -2e+102, -1.0000000000000001e+205, -1e+206, 1e+206, 0.0, 0.0],
          [0.0, -999999999.9999999, -1.0000000009999999e+112, -1e+206, 1e+206, 0.0, 0.0]])
# a nan constant term beside float zeros: a pivot stays the float 0.0
@example([[math.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
@example([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 1e300, 1.0, 1e290, 1e300, 0.0, 0.0],
          [-0.0, 0.0, math.inf, 1.0, 1.0, 0.0, 0.0], [1.0, 2.0, 2.0, 1.0, 1.0, 0.0, 0.0]])
def test_routh_block_on_a_block_equals_routh_block_on_each_element(polynomials):
    # a verdict or a flag depends on the element alone, not on its neighbours
    columns = np.array(polynomials).T
    coeffs = [float(c[0]) if (c == c[0]).all() else c for c in columns]
    with np.errstate(all="ignore"):
        block = [np.broadcast_to(x, len(polynomials)) for x in routh_block(coeffs)]
        for i, cs in enumerate(polynomials):
            alone = routh_block([c[i:i + 1] for c in columns])
            assert [x[i] for x in block] == [x[0] for x in alone], cs


def test_routh_rejects_a_table_that_overflows():
    # b1 = c2 - c4*c1/c3 overflows to -inf; read as a lone zero, it gave
    # MARGINAL, though np.roots finds a root at +0.5
    p = Polynomial([1.0, 1e300, 1.0, 1e290, 1e300])
    assert max_real_part_of_roots(p) == pytest.approx(0.5)
    with pytest.raises(PolynomialError, match=r"row s\^2 is not finite: \[-inf, "):
        routh_hurwitz(p)


# ---------------------------------------------------------------------------
# Pole placement helpers


def test_expand_pole_double():
    assert expand_pole(0.5, 2).coeffs == (0.25, 1.0, 1.0)


def test_expand_pole_matches_repeated_multiplication():
    # numpy multiplies out the m factors (s + r) one at a time
    rng = np.random.default_rng(17)
    for _ in range(25):
        r = float(rng.uniform(0.05, 3.0))
        m = int(rng.integers(1, 6))
        prod = np.polynomial.polynomial.polyfromroots([-r] * m)
        assert np.allclose(expand_pole(r, m).coeffs, prod, rtol=1e-12, atol=1e-12)


def test_expand_pole_rejects_bad_multiplicity():
    with pytest.raises(InvalidParams):
        expand_pole(1.0, 0)
    with pytest.raises(InvalidParams):
        expand_pole(1.0, 2.5)


@pytest.mark.parametrize("r,m", [(1e160, 2), (-1e160, 2), (1e120, 3), (10 ** 400, 1),
                                 (math.nan, 2)],
                         ids=["double", "negative", "triple", "huge-int", "nan"])
def test_expand_pole_rejects_non_finite_coefficients(r, m):
    # r**m overflows for the floats; the int 10**400 overflows in float()
    with pytest.raises(InvalidParams, match=r"a coefficient overflows a float or is not finite"):
        expand_pole(r, m)


def test_ipd_gains_from_double_pole():
    kp, kd = ipd_gains_from_target(expand_pole(0.5, 2))
    assert kp == 0.25
    assert kd == 1.0


def test_ipd_gains_reject_non_monic():
    with pytest.raises(NotMonic):
        ipd_gains_from_target(Polynomial((0.25, 1.0, 2.0)))


def test_ipd_gains_reject_wrong_degree():
    with pytest.raises(WrongDegree):
        ipd_gains_from_target(expand_pole(0.5, 3))


def test_pid_gains_reference_plant():
    from ultralocal.sim import example_plant

    kp, ki, kd = pid_gains_from_target(example_plant(), expand_pole(0.66, 3))
    assert math.isclose(kp, 1.3068, rel_tol=1e-9)
    assert math.isclose(ki, 0.287496, rel_tol=1e-9)
    assert math.isclose(kd, 2.98, rel_tol=1e-9)


def test_pid_gains_close_the_loop():
    # closed-loop denominator s^3 + (a1 + b kd)s^2 + (a0 + b kp)s + b ki
    # must reproduce the target polynomial
    from ultralocal.sim import LtiPlant

    rng = np.random.default_rng(23)
    for _ in range(25):
        plant = LtiPlant(
            a1=float(rng.uniform(-2.0, 2.0)),
            a0=float(rng.uniform(-2.0, 2.0)),
            b=float(rng.uniform(0.2, 3.0)),
        )
        target = expand_pole(float(rng.uniform(0.1, 2.0)), 3)
        kp, ki, kd = pid_gains_from_target(plant, target)
        achieved = (
            plant.b * ki,
            plant.a0 + plant.b * kp,
            plant.a1 + plant.b * kd,
            1.0,
        )
        assert np.allclose(achieved, target.coeffs, rtol=1e-12, atol=1e-12)


def test_pid_gains_reject_zero_input_gain():
    from ultralocal.sim import LtiPlant

    plant = LtiPlant(a1=-1.0, a0=0.0, b=0.0)
    with pytest.raises(ZeroInputGain):
        pid_gains_from_target(plant, expand_pole(0.66, 3))


def test_pid_gains_reject_non_monic_target():
    from ultralocal.sim import example_plant

    with pytest.raises(NotMonic):
        pid_gains_from_target(example_plant(), Polynomial((1.0, 1.0, 1.0, 2.0)))


# ---------------------------------------------------------------------------
# Root oracle


def test_max_real_part_known_cases():
    assert math.isclose(max_real_part_of_roots(Polynomial((-1.0, 0.0, 1.0))), 1.0)
    assert math.isclose(max_real_part_of_roots(Polynomial((1.0, 2.0, 1.0))), -1.0)


def test_max_real_part_rejects_constant():
    with pytest.raises(DegreeZero):
        max_real_part_of_roots(Polynomial((3.0,)))
    with pytest.raises(ZeroPolynomial):
        max_real_part_of_roots(Polynomial((0.0,)))


def test_convergence_failure_type():
    assert issubclass(ConvergenceFailure, RuntimeError)
