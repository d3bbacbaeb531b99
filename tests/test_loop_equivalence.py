"""The closed loop, its replayed estimate, reference columns and trace writer
against their oracles.

run_closed_loop must reproduce, bit for bit, the sample-by-sample loop in
loop_oracle, which is built from the frozen per-sample _rk4,
DerivatorFilter, estimate_f and control laws there: every column's
bytes and dtype, the length, the diverged flag and the meta dict. Wherever
the loop estimates the lumped term, replay_estimator run over the logged
y_measured and u columns must reproduce its f_hat column byte for byte,
since the loop and the replay write the same estimator recursion.
closed_loop_diverges, the same loop with nothing logged, must return
run_closed_loop's diverged flag.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_oracle import (
    reference_eval,
    run_closed_loop_reference,
    to_csv_reference,
)
from ultralocal.control import (
    ANALYSIS_FORM,
    CLASSIC_PID,
    DELAYED_INPUT,
    IP,
    IPD,
    IPI,
    IPID,
    ControllerSpec,
    EstimatorConfig,
    replay_estimator,
)
from ultralocal.sim import (
    TRACE_COLUMNS,
    LtiPlant,
    NoiseModel,
    ReferenceTrajectory,
    closed_loop_diverges,
    example_plant,
    run_closed_loop,
)
from ultralocal.stabmap import ip_loop_for_cell

ALL_COLUMNS = TRACE_COLUMNS + ("ydot_true", "yddot_true")
EXAMPLE_COEFFS = (-1.0, 0.0, 1.0)

# kp, ki, kd per kind; iP and iPD carry an unused negative ki (and iP an
# unused kd) so that the laws' ki*0.0 and kd*0.0 terms keep their sign
GAINS = {
    IP: (-0.5, -0.3, 0.2),
    IPI: (0.25, 0.05, 0.0),
    IPD: (0.25, -0.3, 1.0),
    IPID: (0.25, 0.05, 1.0),
    CLASSIC_PID: (1.3068, 0.287496, 2.98),
}
REFERENCES = {
    "constant": ReferenceTrajectory.constant(0.3),
    "smooth-step": ReferenceTrajectory.smooth_step(0.0, 1.0, 0.25, 0.75),
}


def _assert_same(new, old):
    for name in ALL_COLUMNS:
        a = getattr(new, name)
        b = getattr(old, name)
        assert a.dtype == b.dtype == np.float64, name
        assert a.tobytes() == b.tobytes(), name
    assert len(new) == len(old)
    assert new.diverged == old.diverged
    assert new.meta == old.meta
    assert new.h == old.h


def _run_both(*args, **kwargs):
    new = run_closed_loop(*args, **kwargs)
    _assert_same(new, run_closed_loop_reference(*args, **kwargs))
    estimator = args[2]
    if estimator is not None and not kwargs.get("use_oracle_estimator", False):
        replayed = replay_estimator(estimator, new.y_measured, new.u, new.h)
        assert replayed.dtype == np.float64
        assert replayed.tobytes() == new.f_hat.tobytes()
    return new


def _controller(kind, alpha=0.5):
    kp, ki, kd = GAINS[kind]
    return ControllerSpec(kind, kp=kp, ki=ki, kd=kd,
                          alpha=None if kind == CLASSIC_PID else alpha)


def _estimator(kind, variant, alpha=0.5, t_filter=0.1, plant_coeffs=EXAMPLE_COEFFS):
    if kind == CLASSIC_PID:
        return None
    coeffs = plant_coeffs if variant == ANALYSIS_FORM else None
    return EstimatorConfig(nu=1 if kind == IP else 2, alpha=alpha, t_filter=t_filter,
                           variant=variant, plant_coeffs=coeffs)


_LAWS = [(kind, variant) for kind in (IP, IPI, IPD, IPID)
         for variant in (ANALYSIS_FORM, DELAYED_INPUT)] + [(CLASSIC_PID, None)]


@pytest.mark.parametrize("kind,variant", _LAWS)
@pytest.mark.parametrize("delta", [1.0, 0.8, 0.5, 0.0])
def test_loop_equals_oracle(kind, variant, delta):
    for (ref_name, ref), sigma in itertools.product(REFERENCES.items(), (0.0, 0.01)):
        _run_both(example_plant(delta), _controller(kind), _estimator(kind, variant),
                  ref, NoiseModel(sigma, 5), h=2e-3, duration=1.0,
                  y0=-0.05, ydot0=0.1, meta={"case": ref_name})


@pytest.mark.parametrize("kind", [IPI, IPD, IPID])
@pytest.mark.parametrize("delta", [1.0, 0.5])
def test_loop_equals_oracle_with_exact_lumped_term(kind, delta):
    # a0 != 0, so every term of the closed-form law is nonzero
    plant = LtiPlant(a1=-1.0, a0=0.3, b=1.2, delta=delta)
    for ref, sigma in itertools.product(REFERENCES.values(), (0.0, 0.01)):
        _run_both(plant, _controller(kind), None, ref,
                  NoiseModel(sigma, 3), h=2e-3, duration=1.0, y0=0.02,
                  ydot0=-0.1, use_oracle_estimator=True)


def test_loop_equals_oracle_from_rest_at_zero():
    # every signal starts at +0.0, so the sign of each zero term shows in u
    for kind, variant in _LAWS:
        _run_both(example_plant(1.0), _controller(kind), _estimator(kind, variant),
                  ReferenceTrajectory.constant(0.0), NoiseModel(0.0), h=1e-2,
                  duration=0.2)


def test_loop_equals_oracle_on_blowup_truncation():
    # delayed-input iPD diverges within a second at h = 1e-2
    trace = _run_both(example_plant(1.0), _controller(IPD),
                      _estimator(IPD, DELAYED_INPUT), REFERENCES["smooth-step"],
                      NoiseModel(0.01, 1), h=1e-2, duration=5.0, y0=-0.05)
    assert trace.diverged
    assert abs(trace.y_true[-1]) > 1e3
    assert len(trace) < 501


@pytest.mark.parametrize("kp,y0,threshold", [
    (-1e150, 1e200, math.inf),  # no blow-up threshold: the whole state overflows
    (1e308, -1.0, 1e3),         # u = 1e308: ydot overflows while y stays finite
], ids=["state", "velocity-only"])
def test_loop_equals_oracle_on_non_finite_truncation(kp, y0, threshold):
    # the non-finite state is not logged
    trace = _run_both(example_plant(1.0), ControllerSpec.classic_pid(kp, 0.0, 0.0), None,
                      ReferenceTrajectory.constant(0.0), NoiseModel(0.0), h=1e-3,
                      duration=0.1, y0=y0, blowup_threshold=threshold)
    assert trace.diverged
    assert len(trace) < 101
    assert np.all(np.isfinite(trace.y_true)) and np.all(np.isfinite(trace.ydot_true))


def test_loop_rejects_bad_pid_filter_time_like_oracle():
    args = (example_plant(), _controller(CLASSIC_PID), None,
            REFERENCES["constant"], NoiseModel(0.0))
    for loop in (run_closed_loop, run_closed_loop_reference):
        with pytest.raises(ValueError):
            loop(*args, pid_filter_time=0.0)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from((IP, IPI, IPD, IPID, CLASSIC_PID)),
       variant=st.sampled_from((ANALYSIS_FORM, DELAYED_INPUT)),
       gains=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
       alpha=st.floats(0.05, 5.0) | st.floats(-5.0, -0.05),
       t_filter=st.floats(1e-3, 2.0),
       h=st.floats(1e-4, 5e-2),
       steps=st.integers(10, 150),
       sigma=st.sampled_from((0.0, 0.02)),
       oracle=st.booleans(),
       plant=st.builds(LtiPlant, a1=st.floats(-2.0, 2.0), a0=st.floats(-2.0, 2.0),
                       b=st.floats(0.2, 2.0), delta=st.floats(0.1, 1.0)))
def test_loop_equals_oracle_on_drawn_configurations(kind, variant, gains, alpha, t_filter,
                                                    h, steps, sigma, oracle, plant):
    kp, ki, kd = gains
    controller = ControllerSpec(kind, kp=kp, ki=ki, kd=kd,
                                alpha=None if kind == CLASSIC_PID else alpha)
    oracle = oracle and controller.nu == 2
    _run_both(plant, controller,
              None if oracle else _estimator(kind, variant, alpha, t_filter,
                                             (plant.a1, plant.a0, plant.b)),
              REFERENCES["smooth-step"], NoiseModel(sigma, 9), h=h,
              duration=steps * h, y0=-0.05, ydot0=0.2, use_oracle_estimator=oracle,
              pid_filter_time=t_filter)


@pytest.mark.parametrize("ref", [
    ReferenceTrajectory.constant(-0.7),
    ReferenceTrajectory.smooth_step(0.0, 1.0, 1.0, 6.0),
    ReferenceTrajectory.smooth_step(2.5, -1.0, -0.3, 0.1),
], ids=["constant", "smooth-step", "smooth-step-early"])
def test_reference_columns_equal_scalar_quintic(ref):
    t = np.concatenate([np.arange(7001) * 1e-3, [-1.0, -0.3, 0.1, 1.0, 6.0, 1e6]])
    pos, vel, acc = ref.eval_array(t)
    expected = np.array([reference_eval(ref, x) for x in t.tolist()], dtype=float)
    for got, want in zip((pos, vel, acc), expected.T):
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    assert (tuple(col.item() for col in ref.eval_array(np.array([3.5])))
            == tuple(reference_eval(ref, 3.5)))


@pytest.mark.parametrize("duration", [0.02, 10.0])
def test_to_csv_equals_row_writer(tmp_path, duration):
    # 10 s at h = 1e-3 spans three write blocks
    trace = run_closed_loop(example_plant(0.8), _controller(IPD),
                            _estimator(IPD, ANALYSIS_FORM), REFERENCES["smooth-step"],
                            NoiseModel(0.01, 2), h=1e-3, duration=duration, y0=-0.05)
    trace.to_csv(tmp_path / "new.csv")
    to_csv_reference(trace, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# ---------------------------------------------------------------------------
# The flag run against the logged run


def _flags(*args, **kwargs):
    """run_closed_loop's diverged flag, checked equal to closed_loop_diverges'."""
    diverged = run_closed_loop(*args, **kwargs).diverged
    kwargs.pop("meta", None)
    assert closed_loop_diverges(*args, **kwargs) is diverged
    return diverged


def test_flag_run_equals_trace_flag_across_the_matrix():
    # the laws x deltas x references x noise of test_loop_equals_oracle,
    # run long enough (5 s at h = 1e-2) that some of them diverge
    flags = [_flags(example_plant(delta), _controller(kind), _estimator(kind, variant),
                    ref, NoiseModel(sigma, 5), h=1e-2, duration=5.0,
                    y0=-0.05, ydot0=0.1, meta={"case": "flag"})
             for (kind, variant), delta, ref, sigma
             in itertools.product(_LAWS, (1.0, 0.8, 0.5, 0.0), REFERENCES.values(),
                                  (0.0, 0.01))]
    assert 0 < sum(flags) < len(flags)


def test_flag_run_equals_trace_flag_with_exact_lumped_term():
    plant = LtiPlant(a1=-1.0, a0=0.3, b=1.2, delta=0.5)
    for kind, ref, sigma in itertools.product((IPI, IPD, IPID), REFERENCES.values(),
                                              (0.0, 0.01)):
        assert not _flags(plant, _controller(kind), None, ref, NoiseModel(sigma, 3),
                          h=2e-3, duration=1.0, y0=0.02, ydot0=-0.1,
                          use_oracle_estimator=True)


@pytest.mark.parametrize("kp,y0,threshold", [
    (-1e150, 1e200, math.inf),
    (1e308, -1.0, 1e3),
], ids=["state", "velocity-only"])
def test_flag_run_equals_trace_flag_on_non_finite_truncation(kp, y0, threshold):
    assert _flags(example_plant(1.0), ControllerSpec.classic_pid(kp, 0.0, 0.0), None,
                  ReferenceTrajectory.constant(0.0), NoiseModel(0.0), h=1e-3,
                  duration=0.1, y0=y0, blowup_threshold=threshold)


@pytest.mark.parametrize("kp,alpha,diverges", [
    # cells cross_validate samples on the default map at T = 0.1; the
    # second is unstable but grows too slowly to pass the threshold in 20 s
    (-3.95, 0.05000000000000071, False), (-0.5, 0.8500000000000005, False),
    (-1.0999999999999996, 0.10000000000000053, False), (1.2000000000000002, -3.15, True),
    (-1.4, -0.34999999999999964, True),
])
def test_flag_run_equals_trace_flag_on_map_cells(kp, alpha, diverges):
    controller, estimator = ip_loop_for_cell(kp, alpha, 0.1)
    assert _flags(example_plant(1.0), controller, estimator,
                  ReferenceTrajectory.constant(0.0), NoiseModel(0.0, 0),
                  h=1e-3, duration=20.0, y0=-0.05) is diverges


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from((IP, IPI, IPD, IPID, CLASSIC_PID)),
       variant=st.sampled_from((ANALYSIS_FORM, DELAYED_INPUT)),
       gains=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
       alpha=st.floats(0.05, 5.0) | st.floats(-5.0, -0.05),
       t_filter=st.floats(1e-3, 2.0),
       h=st.floats(1e-4, 5e-2),
       steps=st.integers(10, 400),
       sigma=st.sampled_from((0.0, 0.02)),
       oracle=st.booleans(),
       threshold=st.sampled_from((1e3, 1.0)),
       plant=st.builds(LtiPlant, a1=st.floats(-2.0, 2.0), a0=st.floats(-2.0, 2.0),
                       b=st.floats(0.2, 2.0), delta=st.floats(0.1, 1.0)))
def test_flag_run_equals_trace_flag_on_drawn_configurations(kind, variant, gains, alpha,
                                                            t_filter, h, steps, sigma,
                                                            oracle, threshold, plant):
    kp, ki, kd = gains
    controller = ControllerSpec(kind, kp=kp, ki=ki, kd=kd,
                                alpha=None if kind == CLASSIC_PID else alpha)
    oracle = oracle and controller.nu == 2
    _flags(plant, controller,
           None if oracle else _estimator(kind, variant, alpha, t_filter,
                                          (plant.a1, plant.a0, plant.b)),
           REFERENCES["smooth-step"], NoiseModel(sigma, 9), h=h,
           duration=steps * h, y0=-0.05, ydot0=0.2, use_oracle_estimator=oracle,
           pid_filter_time=t_filter, blowup_threshold=threshold)
