"""Tests for the derivative filter, lumped-term estimators, and control laws.

estimate_f and the control laws are the frozen per-sample copies in
loop_oracle, whose algebra the package loop reproduces.
"""

import math
import warnings

import numpy as np
import pytest

from loop_oracle import DerivatorFilter, control_classic_pid, control_intelligent, estimate_f
from ultralocal.control import (
    ANALYSIS_FORM,
    DELAYED_INPUT,
    ConfigMismatch,
    ControllerSpec,
    EstimatorConfig,
    _lag_stages,
    replay_estimator,
)
from ultralocal.sim import (
    NoiseModel,
    ReferenceTrajectory,
    example_plant,
    run_closed_loop,
)

H = 1e-3
T_FILTER = 0.1
EXAMPLE_COEFFS = (-1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# The derivative filter, through replay_estimator: delayed-input with u = 0
# makes the estimate the nu-th filtered derivative itself


def _filtered(nu, y):
    y = np.asarray(y, dtype=float)
    cfg = EstimatorConfig(nu=nu, alpha=0.5, t_filter=T_FILTER, variant=DELAYED_INPUT)
    return replay_estimator(cfg, y, np.zeros_like(y), H)


def test_filter_rejects_bad_params():
    cfg = EstimatorConfig(nu=2, alpha=0.5, t_filter=T_FILTER)
    for h in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="h must be positive"):
            replay_estimator(cfg, np.zeros(3), np.zeros(3), h)


def test_filter_first_sample_primes_without_spike():
    for nu in (1, 2):
        assert _filtered(nu, [5.0]).tolist() == [0.0]


def test_filter_constant_input_gives_zero():
    for nu in (1, 2):
        assert np.max(np.abs(_filtered(nu, np.full(500, 3.7)))) == 0.0


def test_filter_ramp_converges_to_slope():
    # derivative of 3t is 3; transient decays like (T/(T+h))^k
    out = _filtered(1, 3.0 * np.arange(2001) * H)
    assert abs(out[-1] - 3.0) < 1e-6


def test_filter_second_derivative_of_parabola():
    y = (np.arange(3001) * H) ** 2
    assert abs(_filtered(2, y)[-1] - 2.0) < 1e-6
    # the first stage approximates the first derivative 2t with a lag
    assert abs(_filtered(1, y)[-1] - 2.0 * 3000 * H) < 3.0 * T_FILTER


def test_filter_is_linear():
    rng = np.random.default_rng(29)
    x1 = rng.standard_normal(300)
    x2 = rng.standard_normal(300)
    a, b = 1.7, -0.3
    for nu in (1, 2):
        ya = _filtered(nu, x1)
        yb = _filtered(nu, x2)
        yc = _filtered(nu, a * x1 + b * x2)
        assert np.max(np.abs(yc - (a * ya + b * yb))) < 1e-9


# ---------------------------------------------------------------------------
# EstimatorConfig / estimate_f


def test_estimator_config_validation():
    with pytest.raises(ConfigMismatch):
        EstimatorConfig(nu=3, alpha=1.0, t_filter=T_FILTER)
    with pytest.raises(ConfigMismatch):
        EstimatorConfig(nu=1, alpha=0.0, t_filter=T_FILTER)
    with pytest.raises(ConfigMismatch):
        EstimatorConfig(nu=1, alpha=1.0, t_filter=0.0)
    with pytest.raises(ConfigMismatch):
        EstimatorConfig(nu=1, alpha=1.0, t_filter=T_FILTER, variant="magic")
    with pytest.raises(ConfigMismatch):
        EstimatorConfig(nu=1, alpha=1.0, t_filter=T_FILTER, variant=ANALYSIS_FORM)
    with pytest.raises(ConfigMismatch):
        EstimatorConfig(nu=1, alpha=1.0, t_filter=T_FILTER,
                        variant=ANALYSIS_FORM, plant_coeffs=(1.0, 1.0, 0.0))


@pytest.mark.parametrize("index,name,value", [(0, "a1", math.nan), (1, "a0", math.inf),
                                              (2, "b", -math.inf)])
def test_estimator_config_rejects_non_finite_plant_coeffs(index, name, value):
    coeffs = list(EXAMPLE_COEFFS)
    coeffs[index] = value
    with pytest.raises(ConfigMismatch, match="plant_coeffs %s must be finite" % name):
        EstimatorConfig(nu=2, alpha=0.5, t_filter=T_FILTER, variant=ANALYSIS_FORM,
                        plant_coeffs=tuple(coeffs))


@pytest.mark.parametrize("coeffs", [EXAMPLE_COEFFS, (math.nan,), ()])
def test_estimator_config_rejects_plant_coeffs_on_delayed_input(coeffs):
    # the delayed-input estimate never reads them, so they would be dropped
    with pytest.raises(ConfigMismatch, match="plant_coeffs"):
        EstimatorConfig(nu=2, alpha=0.5, t_filter=T_FILTER, plant_coeffs=coeffs)


def test_estimate_f_zero_signals():
    delayed = EstimatorConfig(nu=2, alpha=0.5, t_filter=T_FILTER)
    analysis = EstimatorConfig(nu=2, alpha=0.5, t_filter=T_FILTER,
                               variant=ANALYSIS_FORM, plant_coeffs=EXAMPLE_COEFFS)
    assert estimate_f(delayed, 0.0, 0.0, 0.0, 0.0) == 0.0
    assert estimate_f(analysis, 0.0, 0.0, 0.0, 0.0) == 0.0


def test_estimate_f_delayed_input_substitution():
    cfg1 = EstimatorConfig(nu=1, alpha=0.5, t_filter=T_FILTER)
    assert estimate_f(cfg1, 2.0, 99.0, 0.0, 0.5) == 2.0 - 0.25
    cfg2 = EstimatorConfig(nu=2, alpha=2.0, t_filter=T_FILTER)
    assert estimate_f(cfg2, 99.0, 3.0, 0.0, 0.5) == 3.0 - 1.0


def test_estimate_f_analysis_form_example_plant():
    # on ydd - yd = u the substituted input is d2 - d1, so the nu=2
    # estimate collapses to (1 - alpha)*d2 + alpha*d1
    cfg2 = EstimatorConfig(nu=2, alpha=0.5, t_filter=T_FILTER,
                           variant=ANALYSIS_FORM, plant_coeffs=EXAMPLE_COEFFS)
    assert estimate_f(cfg2, 2.0, 4.0, 7.0, 99.0) == 0.5 * 4.0 + 0.5 * 2.0
    cfg1 = EstimatorConfig(nu=1, alpha=0.5, t_filter=T_FILTER,
                           variant=ANALYSIS_FORM, plant_coeffs=EXAMPLE_COEFFS)
    assert estimate_f(cfg1, 2.0, 4.0, 7.0, 99.0) == 1.5 * 2.0 - 0.5 * 4.0


def test_estimate_f_analysis_form_general_plant():
    cfg = EstimatorConfig(nu=2, alpha=1.0, t_filter=T_FILTER,
                          variant=ANALYSIS_FORM, plant_coeffs=(2.0, 3.0, 2.0))
    # u_sub = (2 + 2*1 + 3*0.5) / 2 = 2.75
    assert estimate_f(cfg, 1.0, 2.0, 0.5, 99.0) == 2.0 - 2.75


# ---------------------------------------------------------------------------
# replay_estimator


def _nominal_tracking_trace(sigma=0.0, seed=1):
    controller = ControllerSpec.ipd(kp=0.25, kd=1.0, alpha=0.5)
    estimator = EstimatorConfig(nu=2, alpha=0.5, t_filter=T_FILTER,
                                variant=ANALYSIS_FORM,
                                plant_coeffs=EXAMPLE_COEFFS)
    return run_closed_loop(
        example_plant(1.0), controller, estimator,
        ReferenceTrajectory.smooth_step(0.0, 1.0, 1.0, 6.0),
        NoiseModel(sigma, seed), h=H, duration=20.0, y0=-0.05)


def test_replay_rejects_mismatched_shapes():
    cfg = EstimatorConfig(nu=1, alpha=0.5, t_filter=T_FILTER)
    with pytest.raises(ValueError):
        replay_estimator(cfg, np.zeros(5), np.zeros(4), H)


def test_replay_matches_in_loop_estimates_exactly():
    trace = _nominal_tracking_trace(sigma=0.01)
    cfg = EstimatorConfig(nu=2, alpha=0.5, t_filter=T_FILTER,
                          variant=ANALYSIS_FORM, plant_coeffs=EXAMPLE_COEFFS)
    replayed = replay_estimator(cfg, trace.y_measured, trace.u, H)
    assert np.array_equal(replayed, trace.f_hat)


def _oracle_replay(cfg, y, u, h):
    """The per-sample estimate of loop_oracle's DerivatorFilter and estimate_f."""
    deriv = DerivatorFilter(cfg.t_filter, 2, h)
    expected = []
    u_prev = 0.0
    for yk, uk in zip(y.tolist(), u.tolist()):
        deriv.step(yk)
        d1, d2 = deriv.stage_outputs
        expected.append(estimate_f(cfg, d1, d2, yk, u_prev))
        u_prev = uk
    return np.array(expected)


def _oracle_signals():
    # arbitrary signals and a plant with every coefficient nontrivial
    rng = np.random.default_rng(41)
    y = rng.standard_normal(400).cumsum() * 0.1
    u = rng.standard_normal(400)
    return y, u, 3e-3


def _oracle_estimator(nu, variant):
    coeffs = (0.3, -1.7, 1.3) if variant == ANALYSIS_FORM else None
    return EstimatorConfig(nu=nu, alpha=-0.7, t_filter=0.05, variant=variant,
                           plant_coeffs=coeffs)


@pytest.mark.parametrize("variant", [DELAYED_INPUT, ANALYSIS_FORM])
@pytest.mark.parametrize("nu", [1, 2])
def test_replay_equals_per_sample_oracle(nu, variant):
    y, u, h = _oracle_signals()
    cfg = _oracle_estimator(nu, variant)
    assert replay_estimator(cfg, y, u, h).tobytes() == _oracle_replay(cfg, y, u, h).tobytes()


@pytest.mark.parametrize("kind", ["inf", "nan", "overflow"])
@pytest.mark.parametrize("variant", [DELAYED_INPUT, ANALYSIS_FORM])
@pytest.mark.parametrize("nu", [1, 2])
def test_replay_of_non_finite_inputs_equals_per_sample_oracle(nu, variant, kind):
    # a non-finite or overflowing output sample poisons the lag states
    # from there on; input samples enter the estimate only elementwise
    y, u, h = _oracle_signals()
    y[300:303] = {"inf": [math.inf, 0.0, -math.inf],
                  "nan": [math.nan, 0.0, 0.0],
                  "overflow": [1e308, -1e308, 1.7e308]}[kind]
    u[[60, 250]] = [math.nan, math.inf]
    u[120:123] = [1e308, -1.7e308, 1e308]
    cfg = _oracle_estimator(nu, variant)
    expected = _oracle_replay(cfg, y, u, h)
    # the oracle's Python floats never warn, so neither may the replay
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = replay_estimator(cfg, y, u, h)
    # a NaN's sign and payload depend on the operation order, so NaN
    # positions are compared, and the bits of every other entry
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


@pytest.mark.parametrize("variant", [DELAYED_INPUT, ANALYSIS_FORM])
@pytest.mark.parametrize("nu", [1, 2])
def test_replay_keeps_the_length_of_short_inputs(nu, variant):
    coeffs = EXAMPLE_COEFFS if variant == ANALYSIS_FORM else None
    cfg = EstimatorConfig(nu=nu, alpha=0.5, t_filter=T_FILTER, variant=variant,
                          plant_coeffs=coeffs)
    for n in (0, 1):
        f = replay_estimator(cfg, np.full(n, 2.0), np.full(n, 3.0), H)
        assert f.shape == (n,)
        assert f.dtype == np.float64


def test_replay_delayed_input_tracks_true_lumped_term():
    # noise-free tracking run; after the filters settle the first-order
    # delayed-input estimate must stay inside an absolute + relative band
    # around the true lumped term yd - alpha*u
    trace = _nominal_tracking_trace(sigma=0.0)
    cfg = EstimatorConfig(nu=1, alpha=0.5, t_filter=T_FILTER)
    f_hat = replay_estimator(cfg, trace.y_measured, trace.u, H)
    f_true = trace.ydot_true - 0.5 * trace.u
    settled = trace.t >= 10.0 * T_FILTER
    err = np.abs(f_hat - f_true)[settled]
    envelope = 0.05 + 0.05 * np.abs(f_true)[settled]
    assert np.all(err <= envelope)


def test_replay_analysis_form_close_to_delayed_input():
    trace = _nominal_tracking_trace(sigma=0.0)
    delayed = EstimatorConfig(nu=1, alpha=0.5, t_filter=T_FILTER)
    analysis = EstimatorConfig(nu=1, alpha=0.5, t_filter=T_FILTER,
                               variant=ANALYSIS_FORM, plant_coeffs=EXAMPLE_COEFFS)
    fd = replay_estimator(delayed, trace.y_measured, trace.u, H)
    fa = replay_estimator(analysis, trace.y_measured, trace.u, H)
    settled = trace.t >= 10.0 * T_FILTER
    assert np.max(np.abs(fd - fa)[settled]) <= 0.05


# ---------------------------------------------------------------------------
# The lag-stage memo: replays of one output column at one T and h run the
# two lag stages once


def _uncached_replay(cfg, y, u, h):
    _lag_stages.cache_clear()
    try:
        return replay_estimator(cfg, y, u, h)
    finally:
        _lag_stages.cache_clear()


def test_six_replays_of_one_trace_equal_uncached_replays_bit_for_bit():
    # the replays of a benchmark replay unit: both variants at three alphas
    trace = _nominal_tracking_trace(sigma=0.01)
    estimators = [EstimatorConfig(nu=nu, alpha=alpha, t_filter=T_FILTER, variant=variant,
                                  plant_coeffs=coeffs)
                  for nu, variant, coeffs in ((2, ANALYSIS_FORM, EXAMPLE_COEFFS),
                                              (1, DELAYED_INPUT, None))
                  for alpha in (0.5, 1.0, 2.0)]
    expected = [_uncached_replay(cfg, trace.y_measured, trace.u, H).tobytes()
                for cfg in estimators]
    got = [replay_estimator(cfg, trace.y_measured, trace.u, H).tobytes()
           for cfg in estimators]
    assert got == expected
    info = _lag_stages.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_a_column_changed_in_place_is_replayed_afresh():
    y, u, h = _oracle_signals()
    cfg = _oracle_estimator(2, ANALYSIS_FORM)
    _lag_stages.cache_clear()
    before = replay_estimator(cfg, y, u, h)
    y[200] += 1.0
    after = replay_estimator(cfg, y, u, h)
    assert after.tobytes() == _uncached_replay(cfg, y, u, h).tobytes()
    assert after.tobytes() != before.tobytes()


def test_columns_that_differ_in_the_sign_of_a_zero_do_not_share_stages():
    # keep = 1/3 rounds keep * -5e-324 to -0.0, so the last sample's d1
    # takes the sign of the last y; 0.0 == -0.0, so a cache keyed on
    # values would replay the second column with the first one's stages
    cfg = EstimatorConfig(nu=1, alpha=1.0, t_filter=0.5)
    columns = [np.array([0.0, 5e-324, 0.0, last]) for last in (0.0, -0.0)]
    expected = [_uncached_replay(cfg, y, np.zeros(4), 1.0).tobytes() for y in columns]
    assert expected[0] != expected[1]
    _lag_stages.cache_clear()
    assert [replay_estimator(cfg, y, np.zeros(4), 1.0).tobytes() for y in columns] == expected


@pytest.mark.parametrize("t_filter,h", [(0.07, 3e-3), (0.05, 2e-3)], ids=["other-t", "other-h"])
def test_another_t_or_h_misses_the_cache(t_filter, h):
    y, u, _ = _oracle_signals()
    first = _oracle_estimator(2, DELAYED_INPUT)
    other = EstimatorConfig(nu=2, alpha=first.alpha, t_filter=t_filter)
    _lag_stages.cache_clear()
    replay_estimator(first, y, u, 3e-3)
    got = replay_estimator(other, y, u, h)
    assert _lag_stages.cache_info().misses == 2
    assert got.tobytes() == _oracle_replay(other, y, u, h).tobytes()


def test_the_cached_stages_are_read_only():
    y, u, h = _oracle_signals()
    cfg = _oracle_estimator(1, DELAYED_INPUT)
    f = replay_estimator(cfg, y, u, h)
    stages = _lag_stages(y.tobytes(), cfg.t_filter, h)
    for stage in stages:
        assert not stage.flags.writeable
        with pytest.raises(ValueError):
            stage[1] = 1.0
    # the estimate is the caller's own array
    assert f.flags.writeable
    assert not any(np.shares_memory(f, stage) for stage in stages)


# ---------------------------------------------------------------------------
# ControllerSpec


def test_controller_spec_constructors_and_nu():
    assert ControllerSpec.ip(1.0, alpha=0.5).nu == 1
    assert ControllerSpec.ipd(0.25, 1.0, alpha=0.5).nu == 2
    assert ControllerSpec.classic_pid(1.0, 0.5, 0.2).nu is None


def test_controller_spec_validation():
    with pytest.raises(ConfigMismatch):
        ControllerSpec("fuzzy", kp=1.0)
    with pytest.raises(ConfigMismatch):
        ControllerSpec.ip(1.0, alpha=0.0)
    with pytest.raises(ConfigMismatch):
        ControllerSpec("ipd", kp=1.0, kd=1.0)  # alpha missing
    with pytest.raises(ConfigMismatch):
        ControllerSpec.classic_pid(float("nan"), 0.0, 0.0)


@pytest.mark.parametrize("kind,gain,value", [
    ("ip", "ki", 3.0), ("ip", "kd", 2.0), ("ipd", "ki", 0.5),
    ("ip", "ki", -0.0), ("ip", "kd", -0.0), ("ipd", "ki", -0.0),
])
def test_controller_spec_rejects_a_gain_its_kind_ignores(kind, gain, value):
    # -0.0 too: the loop drops the ignored terms, which is exact only for +0.0
    with pytest.raises(ConfigMismatch, match="%s controllers ignore %s" % (kind, gain)):
        ControllerSpec(kind, kp=1.0, alpha=0.5, **{gain: value})


def test_controller_spec_accepts_every_gain_its_kind_uses():
    assert ControllerSpec("ipd", kp=-0.0, kd=-0.0, alpha=0.5).kd == 0.0
    assert ControllerSpec("ip", kp=1.0, ki=0, kd=0.0, alpha=0.5).nu == 1
    pid = ControllerSpec.classic_pid(-0.0, -0.0, -0.0)
    assert math.copysign(1.0, pid.ki) == math.copysign(1.0, pid.kd) == -1.0


def test_controller_spec_describe():
    assert "ipd" in ControllerSpec.ipd(0.25, 1.0, alpha=0.5).describe()
    assert "pid" in ControllerSpec.classic_pid(1.0, 2.0, 3.0).describe()


# ---------------------------------------------------------------------------
# Control laws: hand-checked substitutions


def test_control_ip_substitution():
    spec = ControllerSpec.ip(kp=3.0, alpha=2.0)
    u = control_intelligent(2.0, 1.0, 0.1, 0.0, 0.0, spec)
    assert math.isclose(u, -(2.0 - 1.0 - 0.3) / 2.0)


def test_control_ipd_substitution():
    spec = ControllerSpec.ipd(kp=0.25, kd=1.0, alpha=0.5)
    u = control_intelligent(1.0, 0.5, 0.2, 0.0, -0.1, spec)
    assert math.isclose(u, -(1.0 - 0.5 - 0.05 + 0.1) / 0.5)


def test_control_classic_pid_substitution():
    spec = ControllerSpec.classic_pid(kp=1.5, ki=0.2, kd=2.0)
    u = control_classic_pid(2.0, 1.0, -0.5, spec)
    assert math.isclose(u, 3.0 + 0.2 - 1.0)


def test_zero_gain_masking_identities():
    # a gain the kind ignores is +0.0, so its term, that gain times the 0.0
    # the oracle passes, leaves every partial sum's bits, a -0.0 included:
    # the package loop writes the laws without those terms
    rng = np.random.default_rng(37)
    draws = [tuple(rng.uniform(-2.0, 2.0, size=4).tolist()) for _ in range(50)]
    draws += [(-0.0, 0.0, 0.0, 0.0), (-0.0, 0.0, -0.0, 0.0), (0.0, 0.0, 0.0, -0.0)]
    kp, kd, alpha = 0.25, 1.0, 0.5
    ip = ControllerSpec.ip(kp, alpha=alpha)
    ipd = ControllerSpec.ipd(kp, kd, alpha=alpha)
    for f, r, e, ed in draws:
        assert (control_intelligent(f, r, e, 0.0, 0.0, ip).hex()
                == (-(f - r - kp * e) / alpha).hex())
        assert (control_intelligent(f, r, e, 0.0, ed, ipd).hex()
                == (-(f - r - kp * e - kd * ed) / alpha).hex())


def test_control_laws_reject_wrong_kind():
    ipd = ControllerSpec.ipd(0.25, 1.0, alpha=0.5)
    with pytest.raises(ConfigMismatch, match="intelligent"):
        control_intelligent(0.0, 0.0, 0.0, 0.0, 0.0, ControllerSpec.classic_pid(1.0, 0.0, 0.0))
    with pytest.raises(ConfigMismatch):
        control_classic_pid(0.0, 0.0, 0.0, ipd)
