"""The closed loop, its replayed estimate, reference columns and trace writer
against their oracles.

run_closed_loop must reproduce, bit for bit, the sample-by-sample loop in
loop_oracle, which is built from the frozen per-sample _rk4,
DerivatorFilter, estimate_f and control laws there: every column's
bytes and dtype, the length, the diverged flag and the meta dict. Wherever
the loop estimates the lumped term, replay_estimator run over the logged
y_measured and u columns must reproduce its f_hat column byte for byte,
since the loop and the replay write the same estimator recursion.
Without noise and with a zero reference, iterating the loop's matrix
(loop_matrices) must follow run_closed_loop's y_true to rounding, and the
flags regulation_diverged reads off the matrices must be
run_closed_loop's diverged flags.
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
from ultralocal import sim
from ultralocal.control import (
    _ALL_KINDS,
    _INTELLIGENT_KINDS,
    ANALYSIS_FORM,
    CLASSIC_PID,
    DELAYED_INPUT,
    IP,
    IPD,
    ControllerSpec,
    EstimatorConfig,
    replay_estimator,
)
from ultralocal.sim import (
    BLOWUP_THRESHOLD,
    TRACE_COLUMNS,
    LtiPlant,
    NoiseModel,
    ReferenceTrajectory,
    example_plant,
    regulation_diverged,
    run_closed_loop,
)
from ultralocal.poly import expand_pole, ipd_gains_from_target, pid_gains_from_target
from ultralocal.stabmap import (
    DEFAULT_AXIS,
    VERDICT_STABLE,
    GridSpec,
    cell_verdict,
    cross_validate,
    default_grid_spec,
    ip_loop_for_cell,
    sweep,
)

ALL_COLUMNS = TRACE_COLUMNS + ("ydot_true", "yddot_true")
EXAMPLE_COEFFS = (-1.0, 0.0, 1.0)

# kp, ki, kd per kind; a gain the kind has no term for is 0.0
GAINS = {
    IP: (-0.5, 0.0, 0.0),
    IPD: (0.25, 0.0, 1.0),
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


_LAWS = [(kind, variant) for kind in _INTELLIGENT_KINDS
         for variant in (ANALYSIS_FORM, DELAYED_INPUT)] + [(CLASSIC_PID, None)]
# the kinds the oracle-estimator mode accepts
_SECOND_ORDER = [kind for kind in _INTELLIGENT_KINDS if _controller(kind).nu == 2]


def _drawn_gains(kind):
    """(kind, (kp, ki, kd)) with ki drawn only for the PID and kd only for
    the PID and iPD; the others are the 0.0 their kind requires."""
    gain = st.floats(-20.0, 20.0)
    zero = st.just(0.0)
    return st.tuples(st.just(kind), st.tuples(
        gain, gain if kind == CLASSIC_PID else zero,
        gain if kind in (CLASSIC_PID, IPD) else zero))


_DRAWN_LAWS = st.sampled_from(_ALL_KINDS).flatmap(_drawn_gains)


@pytest.mark.parametrize("kind,variant", _LAWS)
@pytest.mark.parametrize("delta", [1.0, 0.8, 0.5, 0.0])
def test_loop_equals_oracle(kind, variant, delta):
    for (ref_name, ref), sigma in itertools.product(REFERENCES.items(), (0.0, 0.01)):
        _run_both(example_plant(delta), _controller(kind), _estimator(kind, variant),
                  ref, NoiseModel(sigma, 5), h=2e-3, duration=1.0,
                  y0=-0.05, ydot0=0.1, meta={"case": ref_name})


@pytest.mark.parametrize("kind", _SECOND_ORDER)
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


# u overflows the integration state before |y| passes the threshold
_NON_FINITE_CASES = pytest.mark.parametrize("kp,y0,length", [
    (1e306, -999.0, 1),  # u = inf at sample 0: the whole state overflows
    (1e308, -1.0, None),  # u = 1e308: ydot overflows while y stays finite
], ids=["state", "velocity-only"])


@_NON_FINITE_CASES
def test_loop_equals_oracle_on_non_finite_truncation(kp, y0, length):
    # the non-finite state is not logged
    trace = _run_both(example_plant(1.0), ControllerSpec.classic_pid(kp, 0.0, 0.0), None,
                      ReferenceTrajectory.constant(0.0), NoiseModel(0.0), h=1e-3,
                      duration=0.1, y0=y0)
    assert trace.diverged
    assert len(trace) < 101 if length is None else len(trace) == length
    assert np.all(np.isfinite(trace.y_true)) and np.all(np.isfinite(trace.ydot_true))


def test_loop_rejects_bad_pid_filter_time_like_oracle():
    args = (example_plant(), _controller(CLASSIC_PID), None,
            REFERENCES["constant"], NoiseModel(0.0))
    for loop in (run_closed_loop, run_closed_loop_reference):
        with pytest.raises(ValueError):
            loop(*args, pid_filter_time=0.0)


@settings(max_examples=200, deadline=None)
@given(law=_DRAWN_LAWS,
       variant=st.sampled_from((ANALYSIS_FORM, DELAYED_INPUT)),
       alpha=st.floats(0.05, 5.0) | st.floats(-5.0, -0.05),
       t_filter=st.floats(1e-3, 2.0),
       h=st.floats(1e-4, 5e-2),
       steps=st.integers(10, 150),
       sigma=st.sampled_from((0.0, 0.02)),
       oracle=st.booleans(),
       plant=st.builds(LtiPlant, a1=st.floats(-2.0, 2.0), a0=st.floats(-2.0, 2.0),
                       b=st.floats(0.2, 2.0), delta=st.floats(0.1, 1.0)))
def test_loop_equals_oracle_on_drawn_configurations(law, variant, alpha, t_filter,
                                                    h, steps, sigma, oracle, plant):
    kind, (kp, ki, kd) = law
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
# The loop matrix and its flags against the logged run

ZERO = ReferenceTrajectory.constant(0.0)


def _flags(plant, controller, estimator, reference, noise, h, duration, y0=0.0,
           ydot0=0.0, pid_filter_time=0.1, meta=None):
    """run_closed_loop's diverged flag; where the run is a noise-free
    regulation to zero, checked equal to regulation_diverged's."""
    diverged = run_closed_loop(plant, controller, estimator, reference, noise, h, duration,
                               y0, ydot0, pid_filter_time=pid_filter_time,
                               meta=meta).diverged
    if reference == ZERO and noise.sigma == 0.0:
        assert regulation_diverged([(plant, controller, estimator, y0, ydot0)], h,
                                   duration, pid_filter_time) == [diverged]
    return diverged


def test_flag_run_equals_trace_flag_across_the_matrix():
    # the laws x deltas x references x noise of test_loop_equals_oracle
    # and a zero reference, run long enough (5 s at h = 1e-2) that some of
    # them diverge
    flags = [_flags(example_plant(delta), _controller(kind), _estimator(kind, variant),
                    ref, NoiseModel(sigma, 5), h=1e-2, duration=5.0,
                    y0=-0.05, ydot0=0.1, meta={"case": "flag"})
             for (kind, variant), delta, ref, sigma
             in itertools.product(_LAWS, (1.0, 0.8, 0.5, 0.0),
                                  (ZERO,) + tuple(REFERENCES.values()), (0.0, 0.01))]
    assert 0 < sum(flags) < len(flags)


@_NON_FINITE_CASES
def test_flag_run_equals_trace_flag_on_non_finite_truncation(kp, y0, length):
    assert _flags(example_plant(1.0), ControllerSpec.classic_pid(kp, 0.0, 0.0), None,
                  ZERO, NoiseModel(0.0), h=1e-3, duration=0.1, y0=y0)


@pytest.mark.parametrize("kp,alpha,diverges", [
    # cells cross_validate samples on the default map at T = 0.1; the
    # second is unstable but grows too slowly to pass the threshold in 20 s
    (-3.95, 0.05000000000000071, False), (-0.5, 0.8500000000000005, False),
    (-1.0999999999999996, 0.10000000000000053, False), (1.2000000000000002, -3.15, True),
    (-1.4, -0.34999999999999964, True),
])
def test_flag_run_equals_trace_flag_on_map_cells(kp, alpha, diverges):
    controller, estimator = ip_loop_for_cell(kp, alpha, 0.1)
    assert _flags(example_plant(1.0), controller, estimator, ZERO, NoiseModel(0.0, 0),
                  h=1e-3, duration=20.0, y0=-0.05) is diverges


# starts at and near the blow-up threshold, so that some runs diverge and
# some stay within the margin of it
_NEAR_THRESHOLD = (st.sampled_from((-0.05, BLOWUP_THRESHOLD,
                                    -math.nextafter(BLOWUP_THRESHOLD, 2e3)))
                   | st.floats(-1.01 * BLOWUP_THRESHOLD, -0.99 * BLOWUP_THRESHOLD)
                   | st.floats(0.99 * BLOWUP_THRESHOLD, 1.01 * BLOWUP_THRESHOLD))


@settings(max_examples=100, deadline=None)
@given(law=_DRAWN_LAWS,
       variant=st.sampled_from((ANALYSIS_FORM, DELAYED_INPUT)),
       alpha=st.floats(0.05, 5.0) | st.floats(-5.0, -0.05),
       t_filter=st.floats(1e-3, 2.0),
       h=st.floats(1e-4, 5e-2),
       steps=st.integers(10, 400),
       y0=_NEAR_THRESHOLD,
       plant=st.builds(LtiPlant, a1=st.floats(-2.0, 2.0), a0=st.floats(-2.0, 2.0),
                       b=st.floats(0.2, 2.0), delta=st.floats(0.1, 1.0)))
def test_flag_run_equals_trace_flag_on_drawn_configurations(law, variant, alpha,
                                                            t_filter, h, steps, y0, plant):
    kind, (kp, ki, kd) = law
    controller = ControllerSpec(kind, kp=kp, ki=ki, kd=kd,
                                alpha=None if kind == CLASSIC_PID else alpha)
    _flags(plant, controller,
           _estimator(kind, variant, alpha, t_filter, (plant.a1, plant.a0, plant.b)),
           ZERO, NoiseModel(0.0), h=h, duration=steps * h, y0=y0, ydot0=0.2,
           pid_filter_time=t_filter)


@pytest.mark.parametrize("h,steps", [(1e-3, 3000), (1e-2, 400)])
def test_regulation_flags_equal_trace_flags_on_a_drawn_batch(monkeypatch, h, steps):
    # 60 drawn loops of every law in one call, a third of them starting
    # within 1% of the threshold and a third within 1e-6 below it, inside
    # the margin: each flag equals run_closed_loop's, and a loop whose
    # values come within the margin and never clearly cross is simulated
    rng = np.random.default_rng(23)
    loops = []
    for i in range(60):
        kind, variant = _LAWS[i % len(_LAWS)]
        alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 5.0)
        plant = LtiPlant(a1=rng.uniform(-2.0, 2.0), a0=rng.uniform(-2.0, 2.0),
                         b=rng.uniform(0.2, 2.0), delta=rng.uniform(0.1, 1.0))
        kp, ki, kd = rng.uniform(-20.0, 20.0, 3)
        controller = ControllerSpec(kind, kp=kp, ki=ki if kind == CLASSIC_PID else 0.0,
                                    kd=0.0 if kind == IP else kd,
                                    alpha=None if kind == CLASSIC_PID else alpha)
        near = (-0.05, rng.uniform(0.99, 1.01), 1.0 - rng.uniform(0.0, 1e-6))[i % 3]
        y0 = rng.choice([-1.0, 1.0]) * BLOWUP_THRESHOLD * near if i % 3 else near
        loops.append((plant, controller,
                      _estimator(kind, variant, alpha, 0.1, (plant.a1, plant.a0, plant.b)),
                      y0, 0.2))
    real = sim.run_closed_loop
    simulated = []
    monkeypatch.setattr(sim, "run_closed_loop",
                        lambda *args, **kwargs: simulated.append(args) or real(*args, **kwargs))
    flags = regulation_diverged(loops, h, steps * h)
    expected = [real(plant, controller, estimator, ZERO, NoiseModel(0.0), h, steps * h,
                     y0, ydot0).diverged
                for plant, controller, estimator, y0, ydot0 in loops]
    assert flags == expected
    assert 0 < sum(flags) < len(flags)
    assert 0 < len(simulated) < len(loops) // 2


def _clear_flags_reference(matrices, y0, n):
    """The diverged flags scanned over every block of every loop, as
    sim._clear_flags did before it skipped the blocks its bound settles:
    a frozen copy that _clear_flags must match, None included. Do not
    edit."""
    block, margin = 256, 1e-6
    d = max(len(x1) for _, x1 in matrices)
    a = np.zeros((len(matrices), d, d))
    x = np.zeros((len(matrices), d, 1))
    for i, (ai, x1) in enumerate(matrices):
        a[i, :len(x1), :len(x1)] = ai
        x[i, :len(x1), 0] = x1
    high = BLOWUP_THRESHOLD * (1.0 + margin)
    low = BLOWUP_THRESHOLD * (1.0 - margin)
    y0 = np.abs(np.array(y0))
    crossed = y0 > high
    broken = np.zeros(len(y0), bool)
    near = y0 >= low
    with np.errstate(all="ignore"):
        rows = np.broadcast_to(np.eye(d)[:2], (len(y0), 2, d))
        power = a
        for _ in range(block.bit_length() - 1):
            rows = np.concatenate([rows, rows @ power], axis=1)
            power = power @ power
        open_ = ~crossed
        for first in range(1, n, block):
            if not open_.any():
                break
            yv = (rows[:, :2 * min(block, n - first)] @ x).reshape(len(y0), -1, 2)
            x = power @ x
            if not (open_ & ~(np.abs(yv).max(axis=(1, 2)) < low)).any():
                continue
            y = np.abs(yv[..., 0])
            over = y > high
            bad = ~np.isfinite(yv).all(axis=2)
            first_over = np.where(over.any(axis=1), over.argmax(axis=1), y.shape[1])
            first_bad = np.where(bad.any(axis=1), bad.argmax(axis=1), y.shape[1])
            crossed |= open_ & (first_over < first_bad)
            broken |= open_ & (first_bad <= first_over) & bad.any(axis=1)
            near |= open_ & (y >= low).any(axis=1)
            open_ = ~(crossed | broken)
    return [True if c else None if b or m else False
            for c, b, m in zip(crossed.tolist(), broken.tolist(), near.tolist())]


@pytest.mark.parametrize("t_filter", [0.1, 0.05, 0.5, 1.0, 1.5])
def test_clear_flags_equal_the_full_scan_on_cross_validate_chunks(monkeypatch, t_filter):
    # every chunk cross_validate hands to _clear_flags on the default map
    # at this T, seeds 0 to 39
    real = sim._clear_flags
    chunks = []

    def both(a, x1, y0, n):
        flags = real(a, x1, y0, n)
        chunks.append((flags, _clear_flags_reference(list(zip(a, x1)), y0, n)))
        return flags
    monkeypatch.setattr(sim, "_clear_flags", both)
    grid = sweep(GridSpec(DEFAULT_AXIS, DEFAULT_AXIS, (t_filter,)))
    for seed in range(40):
        cross_validate(grid, seed=seed)
    assert len(chunks) == 40 * 5  # 50 samples, 10 loops per chunk
    assert all(new == old for new, old in chunks)
    assert {True, False} <= {flag for new, _ in chunks for flag in new}


def _drawn_loop(rng, kind, variant, y0):
    """A drawn loop of the law: plant, gains, alpha and T as the drawn
    batch above draws them, from y0 with ydot0 = 0.2."""
    alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 5.0)
    plant = LtiPlant(a1=rng.uniform(-2.0, 2.0), a0=rng.uniform(-2.0, 2.0),
                     b=rng.uniform(0.2, 2.0), delta=rng.uniform(0.1, 1.0))
    kp, ki, kd = rng.uniform(-20.0, 20.0, 3)
    controller = ControllerSpec(kind, kp=kp, ki=ki if kind == CLASSIC_PID else 0.0,
                                kd=0.0 if kind == IP else kd,
                                alpha=None if kind == CLASSIC_PID else alpha)
    t_filter = rng.uniform(1e-3, 2.0)
    estimator = _estimator(kind, variant, alpha, t_filter, (plant.a1, plant.a0, plant.b))
    return plant, controller, estimator, y0, 0.2, t_filter


@pytest.mark.parametrize("n", [11, 256, 257, 258, 20_001])
def test_clear_flags_equal_the_full_scan_on_drawn_batches(n):
    # 10-loop batches of every law, PID matrices (5x5, padded with 0.0)
    # next to iP and iPD ones. The first block holds samples 1 to 256: the
    # horizons end early in it, one sample short of its end, at its end,
    # one sample into a second block, and after 20 s at h = 1e-3. The
    # last batch adds loops whose values overflow.
    rng = np.random.default_rng(n)
    flags = []
    for batch in range(8):
        h = (1e-3, 1e-2)[batch % 2]
        loops = []
        for i in range(10):
            kind, variant = _LAWS[(batch + i) % len(_LAWS)]
            # |y0| / BLOWUP_THRESHOLD: far below, part way, within 1%,
            # within the margin below, at the threshold, at either edge
            # of the margin
            scale = (5e-5, rng.uniform(0.1, 0.9), rng.uniform(0.99, 1.01),
                     1.0 - rng.uniform(0.0, 1e-6), 1.0, 1.0 - 1e-6, 1.0 + 1e-6)[(batch + i) % 7]
            y0 = rng.choice([-1.0, 1.0]) * BLOWUP_THRESHOLD * scale
            loops.append(_drawn_loop(rng, kind, variant, y0))
        if batch == 7:
            # the overflowing runs of the non-finite truncation tests
            loops[:2] = [(example_plant(1.0), ControllerSpec.classic_pid(kp, 0.0, 0.0), None,
                          y0, 0.0, 0.1) for kp, y0 in ((1e306, -999.0), (1e308, -1.0))]
        # each loop has its own filter time, so one loop_matrices call each
        a, x1 = (np.concatenate(stack) for stack in zip(*(
            sim.loop_matrices([loop[:5]], h, loop[5]) for loop in loops)))
        y0s = [loop[3] for loop in loops]
        new = sim._clear_flags(a, x1, y0s, n)
        assert new == _clear_flags_reference(list(zip(a, x1)), y0s, n)
        flags += new
    assert {True, False, None} <= set(flags)


@pytest.mark.parametrize("n", [11, 20_001])
def test_clear_flags_evaluate_the_blocks_a_bound_leaves_open(n):
    # matrices whose y bound is tight: a y held just inside the margin
    # below the threshold (its bound is below the threshold but not below
    # low), and a v that doubles from 1e307 and overflows while y stays at
    # 0.05 (its y bound is finite, its v bound not); beside them a y held
    # far below and one above the threshold
    grow_v = np.eye(6)
    grow_v[1, 1] = 2.0
    matrices = [(np.eye(6), np.array([BLOWUP_THRESHOLD * (1.0 - 1e-7), 0, 0, 0, 0, 0])),
                (grow_v, np.array([0.05, 1e307, 0, 0, 0, 0])),
                (np.eye(6), np.array([0.05, 0, 0, 0, 0, 0])),
                (np.eye(6), np.array([2 * BLOWUP_THRESHOLD, 0, 0, 0, 0, 0]))]
    y0 = [0.05] * 4
    a, x1 = (np.array(stack) for stack in zip(*matrices))
    assert sim._clear_flags(a, x1, y0, n) == [None, None, False, True]
    assert _clear_flags_reference(matrices, y0, n) == [None, None, False, True]


def _iterated(a, x1, y0, n):
    """y of samples 0 to n - 1 from iterating the loop matrix."""
    ys = [y0]
    x = x1
    for _ in range(n - 1):
        ys.append(x[0])
        x = a @ x
    return np.array(ys)


@pytest.mark.parametrize("kind,variant", _LAWS)
@pytest.mark.parametrize("delta", [1.0, 0.5])
def test_loop_matrix_iteration_follows_the_trace(kind, variant, delta):
    # 5 s at h = 1e-3; the delayed-input iPD diverges within it
    plant = example_plant(delta)
    controller, estimator = _controller(kind), _estimator(kind, variant)
    trace = run_closed_loop(plant, controller, estimator, ZERO, NoiseModel(0.0), h=1e-3,
                            duration=5.0, y0=-0.05, ydot0=0.1)
    (a,), (x1,) = sim.loop_matrices([(plant, controller, estimator, -0.05, 0.1)], h=1e-3)
    assert (a.shape, x1.shape) == ((6, 6), (6,))
    # sample 0 is the loop's own step on the same floats
    assert (x1[0], x1[1]) == (trace.y_true[1], trace.ydot_true[1])
    y = _iterated(a, x1, -0.05, len(trace))
    assert np.max(np.abs(y - trace.y_true)) <= 1e-12 * np.max(np.abs(trace.y_true))


@pytest.mark.parametrize("kp,alpha,rate", [
    # Routh-stable default-map cells (T = 0.1) whose sampled loop grows
    (-3.0, 0.1, 0.01570), (-2.95, 0.1, 0.005855), (-1.4, 0.15, 0.003369),
    (-0.5, 0.25, 0.001078),
])
def test_loop_rate_of_routh_stable_cells_that_grow(kp, alpha, rate):
    assert cell_verdict(kp, alpha, default_grid_spec()) == VERDICT_STABLE
    (a,), _ = sim.loop_matrices([(example_plant(1.0), *ip_loop_for_cell(kp, alpha, 0.1),
                                  0.0, 0.0)], h=1e-3)
    assert math.log(np.max(np.abs(np.linalg.eigvals(a)))) / 1e-3 == pytest.approx(rate, rel=1e-3)


@pytest.mark.parametrize("law,rate", [
    ("ipd-analysis-form", -0.3724), ("pid", -0.4128), ("ipd-delayed-input", 24.25),
])
def test_loop_rate_of_the_tuned_laws(law, rate):
    # the CLI's default tunings at delta = 1: iPD double pole at -0.5,
    # alpha = 0.5, T = 0.1; PID triple pole at -0.66, lag 0.1
    plant = example_plant(1.0)
    if law == "pid":
        controller = ControllerSpec.classic_pid(
            *pid_gains_from_target(plant, expand_pole(0.66, 3)))
        estimator = None
    else:
        kp, kd = ipd_gains_from_target(expand_pole(0.5, 2))
        controller = ControllerSpec.ipd(kp=kp, kd=kd, alpha=0.5)
        variant = law[len("ipd-"):]
        estimator = _estimator(IPD, variant)
    (a,), _ = sim.loop_matrices([(plant, controller, estimator, 0.0, 0.0)], h=1e-3,
                                pid_filter_time=0.1)
    assert math.log(np.max(np.abs(np.linalg.eigvals(a)))) / 1e-3 == pytest.approx(rate, rel=1e-3)


@pytest.mark.parametrize("h,pid_filter_time", [(1e-3, 0.1), (1e-2, 0.37)])
def test_loop_matrices_equal_loop_matrix_on_mixed_chunks(h, pid_filter_time):
    # 12-loop chunks of every law, at delta 1 and 0.5, PID loops next to
    # iP and iPD ones, with drawn gains, plants, filters and starts: each
    # loop's (A, x1) bit for bit the one loop_matrices gives it alone, and
    # a PID's sixth row, column and x1 entry +0.0
    rng = np.random.default_rng(25)
    for chunk in range(6):
        loops = []
        for i in range(12):
            kind, variant = _LAWS[(chunk + i) % len(_LAWS)]
            plant, controller, estimator, *_ = _drawn_loop(rng, kind, variant, 0.0)
            plant = LtiPlant(plant.a1, plant.a0, plant.b, delta=(1.0, 0.5)[(chunk + i) % 2])
            loops.append((plant, controller, estimator, rng.normal(), rng.normal()))
        a, x1 = sim.loop_matrices(loops, h, pid_filter_time)
        assert (a.shape, x1.shape) == ((12, 6, 6), (12, 6))
        for loop, a_i, x1_i in zip(loops, a, x1):
            (one_a,), (one_x1,) = sim.loop_matrices([loop], h, pid_filter_time)
            assert a_i.tobytes() == one_a.tobytes() and x1_i.tobytes() == one_x1.tobytes()
            if loop[1].kind == CLASSIC_PID:
                pad = np.concatenate([a_i[5], a_i[:, 5], x1_i[5:]])
                assert pad.tobytes() == np.zeros(13).tobytes()
        assert {loop[1].kind for loop in loops} == set(_ALL_KINDS)


def test_loop_matrices_reject_what_run_closed_loop_rejects_naming_the_loop():
    # both read a loop through one validation, with the same type and
    # message but for the loop's index, which names what is wrong
    good = (example_plant(), _controller(IPD), _estimator(IPD, ANALYSIS_FORM), 0.1, 0.0)
    zero, quiet = ReferenceTrajectory.constant(0.0), NoiseModel(0.0)
    for bad, pid_filter_time, names in [
            ((example_plant(), _controller(IPD), _estimator(IP, ANALYSIS_FORM), 0.0, 0.0), 0.1,
             "order"),
            ((example_plant(), _controller(IPD), _estimator(IPD, DELAYED_INPUT, alpha=0.25),
              0.0, 0.0), 0.1, "alpha"),
            ((example_plant(), _controller(IP), None, 0.0, 0.0), 0.1, "estimator config"),
            ((example_plant(), _controller(CLASSIC_PID), None, math.nan, 0.0), 0.1, "y0"),
            ((example_plant(), _controller(CLASSIC_PID), None, 0.0, math.inf), 0.1, "ydot0"),
            ((example_plant(), _controller(CLASSIC_PID), None, 0.0, 0.0), 0.0,
             "pid_filter_time"),
            ((example_plant(), _controller(CLASSIC_PID), None, 0.0, 0.0), math.nan,
             "pid_filter_time")]:
        with pytest.raises(ValueError) as one:
            sim.loop_matrices([bad], pid_filter_time=pid_filter_time)
        with pytest.raises(ValueError) as batch:
            sim.loop_matrices([good, good, bad, good], pid_filter_time=pid_filter_time)
        with pytest.raises(ValueError, match=names) as run:
            run_closed_loop(*bad[:3], zero, quiet, duration=0.1, y0=bad[3], ydot0=bad[4],
                            pid_filter_time=pid_filter_time)
        assert type(one.value) is type(batch.value) is type(run.value)
        assert str(one.value) == "loop 0: " + str(run.value)
        assert str(batch.value) == "loop 2: " + str(run.value)
    for h in (0.0, math.nan):
        with pytest.raises(ValueError, match="h must be positive"):
            sim.loop_matrices([good], h=h)
