import importlib
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evuas as ev
from evuas.integrate import propagate_linear
from evuas.norms import point_norms
from evuas.synthesis import closed_loop_matrix

from oracles import dopri_reference, linear_trajectory

integrate_module = importlib.import_module("evuas.integrate")


def test_constant_solution():
    traj = ev.integrate(lambda t, x: np.zeros_like(x), 0.0,
                        np.array([3.0, -1.0]), 10.0, tol=1e-9)
    assert np.all(traj.states == traj.states[0])
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 10.0


def test_scalar_exponential():
    traj = ev.integrate(lambda t, x: -x, 0.0, np.array([1.0]), 1.0, tol=1e-10)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_triangular_system_closed_form():
    a = np.array([[-1.0, 2.0], [0.0, -1.5]])
    ts = np.linspace(0.0, 1.0, 11)
    traj = ev.integrate(lambda t, x: a @ x, 0.0, np.array([-1.0, 1.5]), 1.0,
                        tol=1e-10, sample_times=ts)
    e1 = 5 * np.exp(-ts) - 6 * np.exp(-1.5 * ts)
    e2 = 1.5 * np.exp(-1.5 * ts)
    assert np.max(np.abs(traj.states[:, 0] - e1)) < 1e-6
    assert np.max(np.abs(traj.states[:, 1] - e2)) < 1e-6
    assert traj.states[-1, 0] == pytest.approx(0.500616, abs=2e-6)
    assert traj.states[-1, 1] == pytest.approx(0.334695, abs=2e-6)


def test_global_error_scales_with_tol():
    for tol in (1e-4, 1e-6, 1e-8, 1e-10):
        traj = ev.integrate(lambda t, x: -x, 0.0, np.array([1.0]), 1.0,
                            tol=tol)
        err = abs(traj.states[-1, 0] - math.exp(-1.0))
        assert err <= tol


def test_matrix_exponential_oracle(rng):
    # compared at the accepted step points, where no interpolation enters
    for _ in range(5):
        a = rng.standard_normal((3, 3))
        a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(3)
        x0 = rng.standard_normal(3)
        tol = 1e-8
        traj = ev.integrate(lambda t, x: a @ x, 0.0, x0, 2.0, tol=tol)
        exact = linear_trajectory(a, x0, traj.times)
        assert np.max(np.abs(traj.states - exact)) <= 10 * tol * max(
            1.0, float(np.max(np.abs(exact))))


def test_tolerance_refinement_consistency():
    coarse = 1e-6
    t1 = ev.integrate(lambda t, x: -x, 0.0, np.array([1.0]), 1.0, tol=coarse)
    t2 = ev.integrate(lambda t, x: -x, 0.0, np.array([1.0]), 1.0,
                      tol=coarse / 2)
    assert abs(t1.states[-1, 0] - t2.states[-1, 0]) <= 10 * coarse


def test_dense_output_between_steps():
    # interpolation is 4th order in the step, so its error dominates the
    # per-step tolerance here; bound pinned from the step sizes this run takes
    ts = np.linspace(0.0, 1.0, 257)
    traj = ev.integrate(lambda t, x: -x, 0.0, np.array([1.0]), 1.0,
                        tol=1e-9, sample_times=ts)
    assert np.array_equal(traj.times, ts)
    assert np.max(np.abs(traj.states[:, 0] - np.exp(-ts))) < 2e-7


def test_freq_hint_caps_the_step():
    # without the cap the controller skips across the fast oscillation
    omega = 2000.0
    rhs = lambda t, x: np.array([math.cos(omega * t)])
    capped = ev.integrate(rhs, 0.0, np.zeros(1), 1.0, tol=1e-6,
                          freq_hint=omega)
    period8 = (2 * math.pi / omega) / 8.0
    assert capped.diagnostics["min_step"] <= period8 + 1e-12
    assert capped.states[-1, 0] == pytest.approx(math.sin(omega) / omega,
                                                 abs=1e-8)


@pytest.mark.parametrize("hint, match", [
    (math.nan, r"^freq_hint is NaN$"),
    (lambda t: math.nan, r"^freq_hint is NaN at t=0\.0$"),
    (math.inf, r"^freq_hint is infinite$"),
    (lambda t: -math.inf, r"^freq_hint is infinite at t=0\.0$")],
    ids=["constant", "callable", "inf_constant", "inf_callable"])
@pytest.mark.parametrize("run", ["integrate", "window_integral_sup"])
def test_a_nan_freq_hint_raises(run, hint, match):
    # NaN fails "omega > 0", which would otherwise lift the step cap, or
    # send the window quadrature to its crossing scan, without a word; an
    # infinite hint would make the cap 0, and the first step divide by it
    calls = {
        "integrate": lambda: ev.integrate(
            lambda t, x: -x + math.cos(50.0 * t), 0.0, np.zeros(1), 10.0,
            tol=1e-6, freq_hint=hint),
        "window_integral_sup": lambda: ev.window_integral_sup(
            lambda t: np.cos(50.0 * np.asarray(t)), 0.0, freq_hint=hint)}
    with pytest.raises(ValueError, match=match):
        calls[run]()


def test_time_varying_freq_hint():
    sig = ev.make_perturbation("t_cos_t4")
    rhs = lambda t, x: np.array([float(sig.w(t))])
    traj = ev.integrate(rhs, 5.0, np.zeros(1), 6.0, tol=1e-7,
                        freq_hint=sig.freq_hint)
    # stationary-phase scale: |int_5^t tau cos(tau^4)| ~ 1/(4 t^2) ~ 0.01
    assert np.max(np.abs(traj.states)) < 0.02


def _raises_without_warnings(*args, **kwargs):
    """The IntegrationError of ev.integrate(*args), no warning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ev.IntegrationError) as exc:
            ev.integrate(*args, **kwargs)
    return exc.value


def test_non_finite_rhs_reports_time():
    # NaN from t = 1 on: the first step to evaluate there fails, and the
    # error carries the last step the run without the NaN accepted before 1
    def rhs(t, x):
        return -x if t < 1.0 else np.full_like(x, np.nan)
    clean = ev.integrate(lambda t, x: -x, 0.0, np.ones(1), 2.0, tol=1e-6)
    exc = _raises_without_warnings(rhs, 0.0, np.ones(1), 2.0, tol=1e-6)
    last = np.flatnonzero(clean.times < 1.0)[-1]
    assert exc.reason == "non-finite"
    assert exc.t_last == clean.times[last]
    assert np.array_equal(exc.x_last, clean.states[last])


def test_non_finite_initial_derivative_fails_at_t0():
    exc = _raises_without_warnings(lambda t, x: np.full_like(x, np.nan),
                                   0.5, np.ones(2), 2.0, tol=1e-6)
    assert exc.reason == "non-finite"
    assert exc.t_last == 0.5
    assert np.array_equal(exc.x_last, np.ones(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("x0", [np.ones(2), np.ones((3, 2))])
@pytest.mark.parametrize("call", [31, 32], ids=["y_new", "last_stage"])
def test_non_finite_late_stage_fails_the_step(call, bad, x0):
    # one RHS value of the fifth step is non-finite (calls 1 and 2 are f0
    # and the initial-step probe, then six per step): the last stage input
    # (call 31), which makes y_new non-finite, or the FSAL stage
    # K[6] = rhs(t_new, y_new) (call 32), with y_new finite.  Either way
    # the step fails, with no warning and not as a rejected step
    calls = []

    def rhs(t, x):
        calls.append(t)
        return np.full_like(x, bad) if len(calls) == call else -x
    clean = ev.integrate(lambda t, x: -x, 0.0, x0, 10.0, tol=1e-6)
    assert clean.diagnostics["n_rejected"] == 0
    exc = _raises_without_warnings(rhs, 0.0, x0, 10.0, tol=1e-6)
    assert exc.reason == "non-finite" and len(calls) == 32
    assert exc.t_last == clean.times[4]
    assert np.array_equal(exc.x_last, clean.states[4])


def test_step_underflow_near_singularity():
    # x' = 1 / (1 - t), x(0) = 0 is -log(1 - t): the step shrinks with
    # 1 - t until it underflows at the last accepted step before t = 1,
    # where -log(1 - t) is about 26 and the per-step errors have added up
    # to about 1e-5 of it
    rhs = lambda t, x: np.array([1.0 / (1.0 - t)])
    exc = _raises_without_warnings(rhs, 0.0, np.zeros(1), 2.0, tol=1e-10)
    assert exc.reason == "step-underflow"
    assert exc.t_last < 1.0
    assert exc.x_last[0] == pytest.approx(-math.log1p(-exc.t_last),
                                          rel=1e-4)


def test_step_budget(monkeypatch):
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", 5)
    with pytest.raises(ev.IntegrationError, match="budget 5"):
        ev.integrate(lambda t, x: -x, 0.0, np.array([1.0]), 10.0, tol=1e-10)


def test_rejects_bad_windows():
    with pytest.raises(ValueError):
        ev.integrate(lambda t, x: -x, 1.0, np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        ev.integrate(lambda t, x: -x, 0.0, np.array([1.0]), 1.0, tol=-1.0)
    with pytest.raises(ValueError):
        ev.integrate(lambda t, x: -x, 0.0, np.array([1.0]), 1.0,
                     sample_times=[0.0, 2.0])


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_rejects_a_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        ev.integrate(lambda t, x: -x, 0.0, np.array([1.0]), 1.0, tol=tol)


@pytest.mark.parametrize("t0, t_end", [(0.0, math.inf), (-math.inf, 1.0),
                                      (math.nan, 1.0)])
@pytest.mark.parametrize("run", ["integrate", "propagate_linear"])
def test_rejects_non_finite_time_bounds(monkeypatch, run, t0, t_end):
    # integrate ran its whole step budget towards t_end = inf, and
    # propagate_linear returned a run ending at its last sample
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", 50)
    calls = {
        "integrate": lambda: ev.integrate(lambda t, x: -x, t0, np.ones(1),
                                          t_end),
        "propagate_linear": lambda: propagate_linear(
            -np.eye(1), (), t0, np.ones(1), t_end, [0.0, 0.5, 1.0])}
    with pytest.raises(ValueError, match=" must be finite$"):
        calls[run]()


@pytest.mark.parametrize("samples", [[], [0.0, math.nan, 1.0]])
@pytest.mark.parametrize("run", ["integrate", "propagate_linear",
                                 "simulate_error_dynamics"])
def test_empty_or_nan_sample_times_are_a_value_error(run, samples):
    # an empty grid used to raise IndexError, and a NaN time made
    # integrate return the initial sample alone
    calls = {
        "integrate": lambda: ev.integrate(
            lambda t, x: -x, 0.0, np.ones(1), 1.0, sample_times=samples),
        "propagate_linear": lambda: propagate_linear(
            -np.eye(1), (), 0.0, np.ones(1), 1.0, samples),
        "simulate_error_dynamics": lambda: ev.simulate_error_dynamics(
            ev.default_hurwitz(1), None, np.ones(1), 0.0, 1.0,
            sample_times=samples)}
    with pytest.raises(ValueError, match="non-empty 1-d sequence of finite"):
        calls[run]()


@pytest.mark.parametrize("grid", [[], [[0.0, 0.5]], [0.0, math.nan, 1.0],
                                  [0.0, math.inf], [0.0, 0.5, 0.5, 1.0]],
                         ids=["empty", "2d", "nan", "inf", "repeated"])
@pytest.mark.parametrize("run", ["integrate", "propagate_linear",
                                 "diminishing_profile"])
def test_every_time_grid_gets_one_check(run, grid):
    calls = {
        "integrate": ("sample_times", lambda: ev.integrate(
            lambda t, x: -x, 0.0, np.ones(1), 1.0, sample_times=grid)),
        "propagate_linear": ("sample_times", lambda: propagate_linear(
            -np.eye(1), (), 0.0, np.ones(1), 1.0, grid)),
        "diminishing_profile": ("t_grid", lambda: ev.diminishing_profile(
            np.sin, grid))}
    name, call = calls[run]
    with pytest.raises(ValueError, match=f"^{name} must be a non-empty 1-d "
                       "sequence of finite, strictly increasing times$"):
        call()


def _turns_to(wrong):
    """An rhs that returns -x on its first two calls, then wrong(x)."""
    calls = []

    def rhs(t, x):
        calls.append(t)
        return -x if len(calls) <= 2 else wrong(x)
    return rhs


@pytest.mark.parametrize("x0, wrong, got", [
    ([[1.0, 2.0], [3.0, 4.0]], lambda x: -x[0], r"\(2,\)"),
    ([1.0, 2.0], lambda x: -x[0], r"\(\)")], ids=["batch_row", "scalar"])
def test_every_rhs_result_is_shape_checked(x0, wrong, got):
    # a later stage result used to be broadcast into the stage buffer:
    # row 1 of the batch ended at [2.368, 2.736], not e^-1 [3, 4]
    shape = re.escape(str(np.shape(x0)))
    with pytest.raises(ev.ShapeError,
                       match=rf"^rhs at t=\S+: expected shape {shape}, "
                       rf"got {got}$"):
        ev.integrate(_turns_to(wrong), 0.0, x0, 1.0)


@pytest.mark.parametrize("shape", [(200, 2), (200, 3), (50, 4, 2)],
                         ids=["Tx2", "Tx3", "TxNx2"])
def test_trajectory_norms_are_each_state_alone(shape, rng):
    # a reduction over the last axis differed from a row's own norm in the
    # last bit on about 8 % of rows
    states = rng.standard_normal(shape)
    traj = ev.Trajectory(times=np.arange(float(shape[0])), states=states)
    got = traj.norms()
    assert got.shape == shape[:-1]
    for idx in np.ndindex(*shape[:-1]):
        assert got[idx] == point_norms(states[idx])


def test_diagnostics_populated():
    traj = ev.integrate(lambda t, x: -x, 0.0, np.array([1.0]), 1.0, tol=1e-8)
    d = traj.diagnostics
    assert d["n_accepted"] == traj.times.size - 1
    assert d["n_rhs"] >= 6 * d["n_accepted"]
    assert 0.0 < d["min_step"] <= 1.0


def test_diagnostics_are_plain_python_types():
    # cos_exp's frequency hint returns numpy scalars, and the cap is active
    sig = ev.make_perturbation("cos_exp")
    traj = ev.integrate(lambda t, x: -x + sig.w(t), 0.0, np.array([1.0]),
                        3.0, tol=1e-6, freq_hint=sig.freq_hint)
    d = traj.diagnostics
    assert d["min_step"] <= (2 * math.pi / math.exp(3.0)) / 8.0
    for key in ("n_accepted", "n_rejected", "n_rhs"):
        assert type(d[key]) is int
    for key in ("min_step", "tol"):
        assert type(d[key]) is float


_A_EX1 = np.array([[-1.0, 2.0], [0.0, -1.5]])     # the Example 1 scenarios
_A_LIN3 = np.array([[-0.5, 2.0, 0.0], [-2.0, -0.5, 1.0], [0.0, -1.0, -1.0]])
# 9-row batches as the verify sweeps step them: radii of the 1-D error
# system, and directions of radius 0.5 in the 2-D closed-loop state
_ROWS_1D = np.linspace(-0.5, 0.5, 9)[:, None]
_ANGLES = np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False)
_ROWS_2D = 0.5 * np.column_stack([np.cos(_ANGLES), np.sin(_ANGLES)])


def _generic_loop():
    # the loop of ``cubic`` closed by a pole-placement gain under cos_exp,
    # which the simulate module runs with F(x, G x) as the state part
    model = ev.make_model("cubic", m=1, n=2)
    return (model, ev.linearize_and_place(model, [-1.0, -2.0]),
            ev.make_perturbation("cos_exp"))


def _reference_system(name):
    """(rhs, freq_hint) of an error system under a catalog perturbation, or
    of a closed loop of ``cubic`` under ``cos_exp``, by the implicit
    controller or by a gain (``generic_loop``), as one function of (t, x)
    that takes a state or a batch."""
    if name == "linear3":
        return (lambda t, x: _A_LIN3 @ x), None
    if name == "factored_batch":
        pert = _smooth_factored()

        def factored(t, e):      # A e + D(t) K(e), row by row
            k = np.array([pert.k(row) for row in e])
            return e @ _A_EX1.T + k @ pert.d(t).T
        return factored, pert.freq_hint
    if name == "generic_loop":   # the first-order form spelled out
        model, ctrl, pert = _generic_loop()

        def first_order(t, x):
            out = np.empty_like(x)
            out[..., :-1] = x[..., 1:]
            out[..., -1:] = model.eval_f(x, ctrl.solve(x)) + pert.w(t)
            return out
        return first_order, pert.freq_hint
    if name == "time_signal":
        pert = _time_signal()
        return (lambda t, e: _A_EX1 @ e + pert.w(t)), pert.freq_hint
    if name in ("closed_loop", "closed_loop_implicit"):
        # the system of the verify_closed_loop sweep
        model, ctrl, pert = _implicit_loop()
        a = closed_loop_matrix(ctrl.design, ctrl.hurwitz)

        def rhs(t, x):           # W on the last entry of each row
            out = x @ a.T
            out[..., -1] += pert.w(t)
            return out
        return rhs, pert.freq_hint
    if name in ("cos_exp", "cos_exp_error"):
        # the system of the verify_error sweep
        pert = ev.make_perturbation("cos_exp")
        return (lambda t, e: -e + pert.w(t)), pert.freq_hint
    pert = ev.make_perturbation(name)
    if pert.kind == "time":
        return (lambda t, e: _A_EX1 @ e + pert.w(t)), pert.freq_hint

    return (lambda t, e: _A_EX1 @ e
            + np.asarray(pert.d(t), dtype=float) @ pert.k(e)), pert.freq_hint


def _implicit_loop():
    # the loop of ``cubic`` closed by the implicit controller under cos_exp
    model = ev.make_model("cubic", m=1, n=2)
    return (model, ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                          ev.default_hurwitz(1)),
            ev.make_perturbation("cos_exp"))


def _time_signal():
    # a time signal with no chirp terms, so that a sampled run of it is
    # integrated, not propagated
    return ev.PerturbationSpec.from_signal(
        lambda t: np.stack([np.cos(6.0 * t), 0.5 * np.sin(9.0 * t)]), 2,
        freq_hint=9.0)


def _smooth_factored():
    # Example 1's D(t) against a smooth K: the catalog's cube root, of
    # infinite slope where a row crosses e_1 = 0, puts the batch's accept
    # or reject decisions within rounding of the threshold (it rejects a
    # third of its steps), so that no two summation orders take one count
    bounded = ev.make_perturbation("example1_bounded")
    return ev.PerturbationSpec.factored(
        bounded.d,
        lambda x: np.array([-x[1], 2.0 * (np.sin(x[0]) + x[1] + 1.0)]), 2,
        freq_hint=bounded.freq_hint)


def _structured_run(name, t0, x0, t_end, tol, samples):
    """The simulate module's run of a reference system on the structured
    stages [x, 1, s] M(t), or on the affine step of a run with no state
    part, or None for a system run as x' = rhs(t, x)."""
    if name == "cos_exp_error":
        return ev.simulate_error_dynamics(
            ev.default_hurwitz(1), ev.make_perturbation("cos_exp"), x0, t0,
            t_end, tol=tol, sample_times=samples)
    if name == "closed_loop_implicit":
        return ev.simulate_closed_loop(*_implicit_loop(), x0, t0, t_end,
                                       tol=tol, sample_times=samples)
    if name == "time_signal":
        return ev.simulate_error_dynamics(
            ev.build_hurwitz(_A_EX1), _time_signal(), x0, t0, t_end, tol=tol,
            sample_times=samples)
    if name == "factored_batch":
        return ev.simulate_error_dynamics(
            ev.build_hurwitz(_A_EX1), _smooth_factored(), x0, t0, t_end,
            tol=tol, sample_times=samples)
    if name == "generic_loop":
        return ev.simulate_closed_loop(*_generic_loop(), x0, t0, t_end,
                                       tol=tol, sample_times=samples)
    return None


@pytest.mark.parametrize("system, t0, x0, t_end, tol, samples", [
    ("example1_unbounded", 0.0, [-1.0, 1.5], 5.0, 1e-6,
     np.linspace(0.0, 5.0, 501)),
    ("example1_bounded", 0.0, [-1.0, 1.5], 3.0, 1e-7,
     np.linspace(0.0, 3.0, 601)),
    ("linear3", 0.0, [1.0, -2.0, 0.5], 10.0, 1e-8,
     np.linspace(0.0, 10.0, 101)),
    # every accepted step stored: rows must not alias the stage buffer
    ("example1_unbounded", 0.0, [-1.0, 1.5], 5.0, 1e-6, None),
    # the cap-driven window of the verify sweeps, t0 up to 2 plus horizon 6
    ("cos_exp", 0.0, [0.5], 8.0, 1e-7, np.linspace(0.0, 8.0, 801)),
    ("cos_exp", 0.0, [0.5], 8.0, 1e-7, None),
    # the batches of the verify sweeps at t0 = 2: the largest row norm is
    # the error norm and the smallest row step the initial step
    ("cos_exp", 2.0, _ROWS_1D, 8.0, 1e-7, None),
    ("closed_loop", 2.0, _ROWS_2D, 7.0, 1e-6, None),
    # the structured stages of the simulate module, with a state part: K(x)
    # of a factored W, and F(x, G x) of a loop closed by a gain
    ("factored_batch", 0.0, _ROWS_2D, 4.0, 1e-7, None),
    ("generic_loop", 2.0, _ROWS_2D, 7.0, 1e-6, None),
    # the affine step of a run with no state part: the batches of the
    # verify sweeps as the simulate module runs them, and a sampled run
    # under a time signal, for its dense output
    ("cos_exp_error", 2.0, _ROWS_1D, 8.0, 1e-7, None),
    ("closed_loop_implicit", 2.0, _ROWS_2D, 7.0, 1e-6, None),
    ("time_signal", 0.0, [-1.0, 1.5], 5.0, 1e-7, np.linspace(0.0, 5.0, 501)),
], ids=["example1_unbounded", "example1_bounded", "linear3", "every_step",
        "cos_exp", "cos_exp_every_step", "cos_exp_batch", "closed_loop_batch",
        "factored_batch", "generic_loop_batch", "cos_exp_error_batch",
        "closed_loop_implicit_batch", "time_signal_sampled"])
def test_matches_reference_stepper(system, t0, x0, t_end, tol, samples):
    rhs, hint = _reference_system(system)
    seen = []

    def recording(t, x):         # the inputs rhs receives, buffers included
        seen.append(x)
        return rhs(t, x)
    traj = _structured_run(system, t0, np.array(x0), t_end, tol, samples)
    if traj is None:
        traj = ev.integrate(recording, t0, np.array(x0), t_end, tol=tol,
                            freq_hint=hint, sample_times=samples)
    times, states, counts = dopri_reference(rhs, t0, x0, t_end, tol,
                                            freq_hint=hint,
                                            sample_times=samples)
    for key, value in counts.items():
        assert traj.diagnostics[key] == value, key
    assert traj.times.shape == times.shape
    assert traj.states.shape == states.shape
    shift = np.max(np.abs(traj.times - times))
    assert shift <= 1e-11
    # a batch's error norm, the largest over its rows, is rounded otherwise
    # than the reference's, so its steps may end up to 1e-11 apart (8e-12 in
    # cos_exp_batch), where its states move by less than twice that
    slack = 2.0 * shift if traj.states.ndim == 3 else 0.0
    assert np.max(np.abs(traj.states - states)) <= 1e-11 + slack
    # no stored row is a reused stage buffer, or a copy of one step's
    assert not any(np.shares_memory(traj.states, x) for x in seen)
    flat = traj.states.reshape(times.size, -1)
    assert len(np.unique(flat, axis=0)) == times.size


def test_tableau_is_dormand_prince():
    # rows 0-4 are A's, row 5 is b, row 6 is E; column 0 weighs the state
    tab = integrate_module._TABLEAU
    assert tab.shape == (7, 8)
    assert not tab[:, 0].any()
    for i in range(6):          # explicit: stage i + 1 reads K[0..i] only
        assert not tab[i, i + 2:].any(), i
    nodes = integrate_module._C[1:] + (1.0,)     # b's row sums to 1
    np.testing.assert_allclose(tab[:6].sum(axis=1), nodes, rtol=1e-15)
    b, e = tab[5, 1:], tab[6, 1:]
    assert abs(e.sum()) <= 1e-15
    b4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40]          # the published fourth-order weights
    np.testing.assert_allclose(b - e, b4, rtol=0.0, atol=1e-16)


# the Dormand-Prince tableau in exact rationals: the rows of A, then b and
# E, each over the stages before it (Dormand & Prince, J. Comput. Appl.
# Math. 6, 1980)
_DOPRI = [[Fraction(*v) for v in row] for row in (
    [(1, 5)],
    [(3, 40), (9, 40)],
    [(44, 45), (-56, 15), (32, 9)],
    [(19372, 6561), (-25360, 2187), (64448, 6561), (-212, 729)],
    [(9017, 3168), (-355, 33), (46732, 5247), (49, 176), (-5103, 18656)],
    [(35, 384), (0,), (500, 1113), (125, 192), (-2187, 6784), (11, 84)],
    [(71, 57600), (0,), (-71, 16695), (71, 1920), (-17253, 339200),
     (22, 525), (-1, 40)])]


def _exact_affine_tables():
    """The increment and error numerator of a step of x' = A x + B w(t) as
    polynomials in Z = h A^T, in exact rationals: per block, one list per
    source (y, then h w_j B at the six distinct stage times) of the
    coefficients of Z^0 ... Z^7."""
    zero = [Fraction(0)] * 8
    stages = []
    for i in range(7):
        given = [zero[:] for _ in range(7)]
        given[0][0] += 1
        for a, stage in zip(_DOPRI[i - 1] if i else [], stages):
            given = [[g + a * c for g, c in zip(row, coefs)]
                     for row, coefs in zip(given, stage)]
        stage = [[Fraction(0)] + row[:-1] for row in given]   # times Z
        stage[1 + min(i, 5)][0] += 1
        stages.append(stage)
    return [[[sum(wt * k[src][m] for wt, k in zip(row, stages))
              for m in range(8)] for src in range(7)] for row in _DOPRI[5:]]


def test_affine_step_tables_are_the_exact_rationals():
    # the tables are derived in float arithmetic at import; they must be
    # the exact polynomials to rounding, P(z) = 1 + increment's y row must
    # be the method's stability polynomial, and the error estimate's y row
    # must start at z^5 (a fourth-order embedding)
    exact = _exact_affine_tables()
    eps = np.finfo(float).eps
    np.testing.assert_allclose(integrate_module._AFFINE,
                               np.array(exact, dtype=float),
                               rtol=4 * eps, atol=8 * eps)
    stability = [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24),
                 Fraction(1, 120), Fraction(1, 600), 0]
    assert [1 + exact[0][0][0]] + exact[0][0][1:] == stability
    assert integrate_module._AFFINE[0, 0, 0] == 0.0
    np.testing.assert_allclose(integrate_module._AFFINE[0, 0, 1:],
                               np.array(stability[1:], dtype=float),
                               rtol=4 * eps, atol=0.0)
    assert not any(exact[1][0][:5])
    # to first order each w_j enters the increment with its stage's weight
    # b_j (the last stage, which shares w_5, has none)
    assert [row[0] for row in exact[0][1:]] == _DOPRI[5]


def _tableau_step(f, t, y, h):
    """One Dormand-Prince step of x' = f(t, x) from (t, y), stage by stage."""
    nodes = integrate_module._C
    stages = []
    for i in range(6):
        given = y + h * sum(float(a) * k
                            for a, k in zip(_DOPRI[i - 1], stages)) if i else y
        stages.append(f(t + nodes[i] * h, given))
    return y + h * sum(float(b) * k for b, k in zip(_DOPRI[5], stages))


@pytest.mark.parametrize("case", ["error", "implicit_batch"])
def test_each_affine_step_is_a_tableau_step(case):
    # every stored state of a run with no state part is one stage-by-stage
    # step, with the same h, from the state stored before it: to a few
    # units of its rounding, eps |x| plus |x'| times the spacing of t,
    # which the step recovered as t_{k+1} - t_k carries
    if case == "error":
        pert = ev.make_perturbation("vec_cos_sin_exp")
        traj = ev.simulate_error_dynamics(ev.build_hurwitz(_A_EX1), pert,
                                          [-1.0, 1.5], 0.0, 3.0, tol=1e-9)

        def f(t, x):
            return x @ _A_EX1.T + pert.w(t)
    else:
        model, ctrl, pert = _implicit_loop()
        a = closed_loop_matrix(ctrl.design, ctrl.hurwitz)
        traj = ev.simulate_closed_loop(model, ctrl, pert, _ROWS_2D, 2.0, 5.0,
                                       tol=1e-7)

        def f(t, x):
            out = x @ a.T
            out[..., -1] += pert.w(t)
            return out
    ts, xs = traj.times, traj.states
    assert ts.size > 100
    for k in range(ts.size - 1):
        want = _tableau_step(f, ts[k], xs[k], ts[k + 1] - ts[k])
        unit = (np.spacing(np.max(np.abs(xs[k:k + 2])))
                + np.max(np.abs(f(ts[k], xs[k]))) * np.spacing(ts[k + 1]))
        assert np.max(np.abs(xs[k + 1] - want)) <= 8 * unit, k


@st.composite
def _hurwitz_systems(draw):
    dim = draw(st.integers(1, 4))
    entries = st.lists(st.floats(-2.0, 2.0), min_size=dim * dim,
                       max_size=dim * dim)
    a = np.array(draw(entries)).reshape(dim, dim)
    margin = draw(st.floats(0.1, 2.0))
    a -= (np.max(np.linalg.eigvals(a).real) + margin) * np.eye(dim)
    x0 = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=dim,
                                max_size=dim)))
    return a, x0


@settings(max_examples=25, deadline=None)
@given(system=_hurwitz_systems())
def test_random_hurwitz_matches_expm(system):
    # compared at the accepted step points, where no interpolation enters
    a, x0 = system
    tol = 1e-8
    traj = ev.integrate(lambda t, x: a @ x, 0.0, x0, 2.0, tol=tol)
    exact = linear_trajectory(a, x0, traj.times)
    assert np.max(np.abs(traj.states - exact)) <= 10 * tol * max(
        1.0, float(np.max(np.abs(exact))))


# --- batches: (N, dim) initial states share one step sequence

@pytest.mark.parametrize("system, x0, t_end, tol, samples", [
    ("example1_unbounded", [-1.0, 1.5], 5.0, 1e-6, np.linspace(0.0, 5.0, 501)),
    ("example1_bounded", [-1.0, 1.5], 3.0, 1e-7, None),
    ("linear3", [1.0, -2.0, 0.5], 10.0, 1e-8, np.linspace(0.0, 10.0, 101)),
], ids=["example1_unbounded", "example1_bounded", "linear3"])
def test_single_row_batch_is_the_plain_run(system, x0, t_end, tol, samples):
    # the batch rhs calls the plain one on its only row, so any difference
    # comes from the batch bookkeeping: it must reproduce the run bit for bit
    rhs, hint = _reference_system(system)
    plain = ev.integrate(rhs, 0.0, np.array(x0), t_end, tol=tol,
                         freq_hint=hint, sample_times=samples)
    batch = ev.integrate(lambda t, x: rhs(t, x[0])[None], 0.0,
                         np.array([x0]), t_end, tol=tol, freq_hint=hint,
                         sample_times=samples)
    for key in ("n_accepted", "n_rejected", "n_rhs"):
        assert batch.diagnostics[key] == plain.diagnostics[key], key
    assert batch.states.shape == (plain.times.size, 1, len(x0))
    assert np.array_equal(batch.times, plain.times)
    assert np.array_equal(batch.states[:, 0], plain.states)
    assert batch.dim == plain.dim == len(x0)


@pytest.mark.parametrize("signal, a", [
    ("cos_exp", [[-1.0]]),
    ("vec_cos_sin_exp", _A_EX1),
])
def test_batch_rows_obey_superposition(signal, a):
    # under time-only forcing e(t; e0) = expm(A (t - t0)) e0 + e(t; 0); the
    # e(t; 0) row rides in the same batch
    a = np.asarray(a)
    sig = ev.make_perturbation(signal)
    dim = a.shape[0]
    e0s = np.vstack([np.zeros(dim), np.linspace(-0.8, 0.6, 3 * dim)
                     .reshape(3, dim)])
    ts = np.linspace(1.0, 4.0, 121)
    traj = ev.integrate(lambda t, e: e @ a.T + sig.w(t), ts[0], e0s, ts[-1],
                        tol=1e-10, freq_hint=sig.freq_hint, sample_times=ts)
    assert traj.states.shape == (ts.size, e0s.shape[0], dim)
    forced = traj.states[:, 0]
    for j in range(1, e0s.shape[0]):
        homogeneous = linear_trajectory(a, e0s[j], ts)
        assert np.max(np.abs(traj.states[:, j] - forced - homogeneous)) <= 1e-8


def test_batch_error_control_is_per_row():
    # one fast row among slow ones: every row meets its own tolerance, so
    # the fast row is not diluted by the others and sets the shared step
    rates = np.array([[-20.0], [-1.0], [-1.0], [-1.0]])
    traj = ev.integrate(lambda t, x: rates * x, 0.0, np.ones((4, 1)), 1.0,
                        tol=1e-8)
    fast = ev.integrate(lambda t, x: rates[0] * x, 0.0, np.ones(1), 1.0,
                        tol=1e-8)
    assert traj.diagnostics["n_accepted"] >= fast.diagnostics["n_accepted"]
    exact = np.exp(np.outer(traj.times, rates))
    assert np.max(np.abs(traj.states[:, :, 0] - exact)) <= 1e-8
    with pytest.raises(ValueError, match="shape"):
        ev.integrate(lambda t, x: x[0], 0.0, np.ones((3, 2)), 1.0)


_NORM_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1e200, math.nan]),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
    st.floats(-1e160, 1e160), st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batch_error_norm_is_the_einsum_max_bit_for_bit(data):
    # a batch's error norm is the largest of its rows' RMS norms, read from
    # a view of the wider stage rows at each call; it must be the einsum
    # and ndarray.max form bit for bit, a NaN anywhere included (Python's
    # max would drop it, depending on where it sits)
    dim, rows = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))
    wide = np.zeros((rows, dim + 3))
    r = wide[:, :dim]
    norm = integrate_module._peak_norm(r)
    # extreme entries, then moderate ones, where another order of the
    # row sums would round otherwise
    for entries in (_NORM_ENTRIES, st.floats(-4.0, 4.0)):
        r[...] = np.reshape(data.draw(st.lists(
            entries, min_size=rows * dim, max_size=rows * dim)), (rows, dim))
        with np.errstate(over="ignore"):
            want = math.sqrt(float(np.einsum("ij,ij->i", r, r).max()) / dim)
            got = norm()
        assert got == want or math.isnan(got) and math.isnan(want)


@pytest.mark.parametrize("x0, match", [
    (np.zeros(0), "got (0,)"), (np.zeros((3, 0)), "got (3, 0)"),
    (np.zeros((0, 2)), "got (0, 2)"),
    (None, "x0: expected real values, got None"),
    ([1 + 1j], "x0: expected real values, got values of dtype complex128")],
    ids=["0", "3x0", "0x2", "none", "complex"])
def test_an_empty_state_is_rejected_before_any_rhs_call(x0, match):
    # no entries is neither a state nor a batch of them; None ran as a NaN
    # state into an IntegrationError at t0, and a complex x0 raised a bare
    # TypeError
    def never_called(t, x):
        raise AssertionError("rhs ran")
    with pytest.raises(ev.ShapeError, match=re.escape(match)):
        ev.integrate(never_called, 0.0, x0, 1.0)


@pytest.mark.parametrize("shape", [(2,), (2, 1, 2), (0, 2), (1, 0), (1, 3),
                                   (1, 1, 2, 1)],
                         ids=["1d", "two_times", "no_row", "width_0",
                              "width_3", "4d"])
def test_time_rows_of_another_shape_are_rejected_before_any_step(shape):
    # the constant time rows set p and the width g feeds: they must be
    # (1 + p, width) with 1 <= width <= dim, here 2, with no axis of times,
    # and fill never runs
    times = []

    def fill(ts, out):
        times.append(ts.tolist())

    def never_called(t, x, out):
        raise AssertionError("state part ran")
    with pytest.raises(ev.ShapeError, match=re.escape(
            "time_part: expected rows of shape (1 + p, width), with "
            f"1 <= width <= 2, got {shape}")):
        ev.integrate(never_called, 0.5, np.ones(2), 1.0, a=-np.eye(2),
                     time_part=(np.zeros(shape), fill))
    assert times == []


def test_time_rows_are_written_in_place_once_per_attempted_step():
    # fill writes the rows that change with t into the M(t) blocks: at t0,
    # at the initial-step probe and once per attempted step on its five
    # stage times, each time into the same (T, 1 + p, width) blocks; the
    # rows constant in t keep what the run started with.  Here
    # x' = -x + w(t) with w(t) = 1 and a constant state part s = x0 under an
    # identity row, so x' = -x + 1 + 1 and x(t) = 2 - e^-t
    calls = []

    def fill(ts, out):
        calls.append((ts.copy(), out.shape, out.base is not None))
        out[:, 0] = 1.0

    def state(t, x, out):
        out[...] = 1.0
    traj = ev.integrate(state, 0.0, [1.0], 1.0, tol=1e-10, a=[[-1.0]],
                        time_part=(np.array([[7.0], [1.0]]), fill))
    assert np.allclose(traj.states[:, 0], 2.0 - np.exp(-traj.times),
                       rtol=0.0, atol=1e-9)
    steps = traj.diagnostics["n_accepted"] + traj.diagnostics["n_rejected"]
    assert [ts.size for ts, _, _ in calls] == [1, 1] + [5] * steps
    assert calls[0][0].tolist() == [0.0]
    assert all(view for _, _, view in calls)
    assert [shape for _, shape, _ in calls[2:]] == [(5, 2, 1)] * steps


def test_time_row_of_a_run_with_no_state_part_is_written_once_per_step():
    # with p = 0, fill writes w into the (T, 1, width) rows of the affine
    # step: at t0, at the probe and once per attempted step on its five
    # stage times, so steps + 2 calls.  Here x' = -x + w(t) with w = 1
    # from x0 = 0, so x(t) = 1 - e^-t
    calls = []

    def fill(ts, out):
        calls.append((ts.copy(), out.shape))
        out[:, 0] = 1.0
    traj = ev.integrate(None, 0.0, [0.0], 1.0, tol=1e-10, a=[[-1.0]],
                        time_part=(np.array([[7.0]]), fill))
    assert np.allclose(traj.states[:, 0], 1.0 - np.exp(-traj.times),
                       rtol=0.0, atol=1e-9)
    steps = traj.diagnostics["n_accepted"] + traj.diagnostics["n_rejected"]
    assert [ts.size for ts, _ in calls] == [1, 1] + [5] * steps
    assert calls[0][0].tolist() == [0.0]
    assert [shape for _, shape in calls] == [(1, 1, 1)] * 2 + [
        (5, 1, 1)] * steps
    assert traj.diagnostics["n_rhs"] == 6 * steps + 2


def test_two_dimensional_x0_is_always_a_batch():
    # a (dim, 1) column is dim one-component states, each under its own
    # error norm; more than two axes is no state shape at all
    rates = np.array([[-1.0], [-2.0], [-3.0]])
    traj = ev.integrate(lambda t, x: rates * x, 0.0, np.ones((3, 1)), 1.0,
                        tol=1e-10)
    assert traj.states.shape == (traj.times.size, 3, 1)
    assert traj.dim == 1
    assert np.max(np.abs(traj.states[-1, :, 0] - np.exp(rates[:, 0]))) \
        <= 1e-8
    scalar = ev.integrate(lambda t, x: -x, 0.0, 1.0, 1.0, tol=1e-10)
    assert scalar.states.shape == (scalar.times.size, 1)
    with pytest.raises(ev.ShapeError, match=r"\(2, 1, 1\)"):
        ev.integrate(lambda t, x: -x, 0.0, np.ones((2, 1, 1)), 1.0)
