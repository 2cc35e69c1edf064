import math

import numpy as np
import pytest
import scipy.integrate
from oracles import forced_linear_reference, newton_reference

import evuas as ev
from evuas.norms import point_norms, unit_directions
from evuas.simulate import _run_linear
from evuas.synthesis import _first_order, closed_loop_matrix

A_H = [[-1.0, 2.0], [0.0, -1.5]]


def _implicit(model, poles):
    return ev.ImplicitController(model, ev.build_gamma(poles, model.n),
                                 ev.default_hurwitz(model.m))


def _chain_controller():
    model = ev.make_model("chain", m=1, n=2)
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.build_hurwitz([[-1.0]]))
    return model, ctrl


def test_error_dynamics_unforced_closed_form():
    traj = ev.simulate_error_dynamics(
        ev.build_hurwitz(A_H), None, [-1.0, 1.5], 0.0, 5.0, tol=1e-9,
        sample_times=np.linspace(0.0, 5.0, 201))
    t = traj.times
    exact = np.stack([5 * np.exp(-t) - 6 * np.exp(-1.5 * t),
                      1.5 * np.exp(-1.5 * t)], axis=1)
    assert np.max(np.abs(traj.states - exact)) < 1e-6


def test_error_dynamics_constant_forcing_settles_at_equilibrium():
    pert = ev.make_perturbation("const_e1", dim=2)
    traj = ev.simulate_error_dynamics(ev.build_hurwitz(A_H), pert,
                                      [-1.0, 1.5], 0.0, 15.0, tol=1e-8)
    assert np.allclose(traj.states[-1], [1.0, 0.0], atol=1e-5)


def test_error_dynamics_unbounded_perturbation_decays():
    # qualitative reproduction: growing-amplitude forcing, decaying error
    pert = ev.make_perturbation("example1_unbounded")
    traj = ev.simulate_error_dynamics(ev.build_hurwitz(A_H), pert,
                                      [-1.0, 1.5], 0.0, 6.0, tol=1e-6)
    norms = traj.norms()
    assert norms[-1] < 0.05
    assert float(np.max(norms[traj.times >= 5.0])) < 0.05


def test_closed_loop_equilibrium_stays_put():
    model, ctrl = _chain_controller()
    traj = ev.simulate_closed_loop(model, ctrl, None, np.zeros(2), 0.0, 5.0,
                                   tol=1e-9)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.inputs == 0.0)


def test_closed_loop_linear_decay():
    model, ctrl = _chain_controller()
    traj = ev.simulate_closed_loop(model, ctrl, None, np.array([0.5, 0.0]),
                                   0.0, 20.0, tol=1e-9)
    assert traj.norms()[-1] < 1e-4
    # closed loop is x1' = x2, x2' = -x1 - 2 x2; spot-check the input column
    assert np.allclose(traj.inputs[:, 0],
                       -traj.states[:, 0] - 2.0 * traj.states[:, 1],
                       atol=1e-9)


def test_closed_loop_with_oscillating_perturbation_stays_small():
    model, ctrl = _chain_controller()
    pert = ev.make_perturbation("cos_exp")
    traj = ev.simulate_closed_loop(model, ctrl, pert, np.array([0.5, 0.0]),
                                   0.0, 8.0, tol=1e-8)
    norms = traj.norms()
    assert float(np.max(norms)) < 0.6          # bounded throughout
    assert norms[-1] < 5e-3                    # pinned from a reference run


def test_closed_loop_shift_consistency():
    model, ctrl = _chain_controller()
    ts = np.linspace(0.0, 10.0, 2001)
    traj = ev.simulate_closed_loop(model, ctrl, None, np.array([0.7, -0.2]),
                                   0.0, 10.0, tol=1e-10, sample_times=ts)
    dt = ts[1] - ts[0]
    d_col1 = np.gradient(traj.states[:, 0], dt)
    err = np.max(np.abs(d_col1[2:-2] - traj.states[2:-2, 1]))
    assert err < 10.0 * dt ** 2


def test_closed_loop_controller_failure_surfaces_state():
    model = ev.make_model("tanh")
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    with pytest.raises(ev.ControllerEvaluationError) as exc:
        ev.simulate_closed_loop(model, ctrl, None, np.array([3.0, 0.0]),
                                0.0, 5.0, tol=1e-8)
    assert exc.value.t is not None
    assert exc.value.x is not None
    assert exc.value.residual is not None


def _newton_in_rhs(model, ctrl, pert, x0, ts, track=None):
    """Reference run that solves the feedback inside every RHS call.

    The input is solved, cold-started, at each stage state, and again
    afterwards at the samples.
    """
    def feedback(t, x):
        if track is None:
            return ctrl.solve(x)
        x_true = x + ev.flatten_state(track.value(t))
        return ctrl.solve_shifted(x, x_true, -track.y_d_n(t))

    def disturbance(t, x):
        # W written out: w(t) for every state, or K of each state row
        # against D(t)
        if pert.kind == "zero":
            return 0.0
        if pert.kind == "time":
            return pert.w(t)
        d_t = np.asarray(pert.d(t), dtype=float).T
        rows = [np.dot(pert.k(row), d_t) for row in np.atleast_2d(x)]
        return np.reshape(rows, x.shape[:-1] + (pert.dim,))

    def rhs(t, x):
        # the first-order form written out: the column shift, then F + W
        x_true = x if track is None else x + ev.flatten_state(track.value(t))
        out = np.empty_like(x)
        out[..., :-model.m] = x[..., model.m:]
        out[..., -model.m:] = (model.eval_f(x_true, feedback(t, x))
                               + disturbance(t, x_true))
        if track is not None:
            # deviation dynamics: the reference's nth derivative comes off
            out[..., -model.m:] -= track.y_d_n(t)
        return out

    x0 = np.asarray(x0, dtype=float)
    if track is not None:
        x0 = x0 - ev.flatten_state(track.value(ts[0]))
    traj = ev.integrate(rhs, ts[0], x0, ts[-1], tol=1e-8,
                        freq_hint=pert.freq_hint, sample_times=ts)
    inputs = [feedback(t, x) for t, x in zip(traj.times, traj.states)]
    return traj.states, np.array(inputs)


@pytest.mark.parametrize("name", ["chain", "cubic", "tanh"])
def test_closed_form_matches_newton_in_rhs(name):
    # without a grid the designed loop stays on the integrator, so the
    # reference takes the same steps, sampled at the run's stored times
    model = ev.make_model(name)
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    pert = ev.make_perturbation("cos_exp")
    x0 = np.array([0.3, -0.1])
    traj = ev.simulate_closed_loop(model, ctrl, pert, x0, 0.0, 6.0, tol=1e-8)
    states, inputs = _newton_in_rhs(model, ctrl, pert, x0, traj.times)
    assert np.max(np.abs(traj.states - states)) < 1e-10
    assert np.max(np.abs(traj.inputs - inputs)) < 1e-10


def test_closed_form_tracking_matches_newton_in_rhs():
    model = ev.make_model("chain", m=1, n=2)
    design, hurwitz = ev.build_gamma([[-1.0]], 2), ev.default_hurwitz(1)
    ctrl = ev.ImplicitController(model, design, hurwitz)
    track = ev.make_reference("sin_cos")
    pert = ev.make_perturbation("cos_exp")
    x0 = np.array([0.3, 1.0])
    traj = ev.simulate_tracking(model, ctrl, track, pert, x0, 0.0, 6.0,
                                tol=1e-8)
    states, inputs = _newton_in_rhs(model, ctrl, pert, x0, traj.times,
                                    track=track)
    assert np.max(np.abs(traj.states - states)) < 1e-10
    assert np.max(np.abs(traj.inputs - inputs)) < 1e-10


def _generic_pert(kind, m, n):
    # w and D take a 1-d array of times, as (m, N) and (m, m, N)
    if kind == "zero":
        return ev.PerturbationSpec.zero(m)
    if kind == "time":
        return ev.PerturbationSpec.from_signal(
            lambda t: np.multiply.outer(np.arange(1.0, m + 1),
                                        np.cos(3.0 * t)), m, freq_hint=3.0)
    d = np.random.default_rng(5).standard_normal((m, m))
    return ev.PerturbationSpec.factored(
        lambda t: np.multiply.outer(d, np.cos(t)),
        lambda x: np.sin(x[:m]) + x[-m:] ** 3, m, state_dim=m * n)


@pytest.mark.parametrize("rows", [None, 4], ids=["one", "batch"])
@pytest.mark.parametrize("kind", ["zero", "time", "factored"])
@pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 2)])
def test_generic_loop_is_the_first_order_form_bit_for_bit(m, n, kind, rows):
    # a loop closed by a linear gain runs the shared right-hand side, with
    # the column shift for M and F(x, Gx) + W in the last block; it must
    # equal integrate on one function of (t, x) that takes the same
    # product [x, 1, F, K] M(t), to the last bit (test_matches_reference_
    # stepper checks the loop against the first-order form spelled out)
    model = ev.make_model("chain", m=m, n=n)
    rng = np.random.default_rng(m * n)
    ctrl = ev.LinearController(-rng.uniform(0.5, 1.5, (m, m * n)))
    pert = _generic_pert(kind, m, n)
    x0 = rng.uniform(-0.5, 0.5, (m * n,) if rows is None else (rows, m * n))
    ts = np.linspace(0.5, 2.5, 41)
    traj = ev.simulate_closed_loop(model, ctrl, pert, x0, 0.5, 2.5,
                                   sample_times=ts)
    plain = ev.integrate(
        _full_rhs(_first_order(m, n, 0), pert, m,
                  term=lambda x: model.eval_f(x, ctrl.solve(x))),
        0.5, x0, 2.5, freq_hint=pert.freq_hint, sample_times=ts)
    assert np.array_equal(traj.times, ts)
    assert np.array_equal(traj.states, plain.states)
    assert np.array_equal(traj.inputs,
                          [ctrl.solve(x) for x in plain.states])


def _full_rhs(a, pert, width, track=None, term=None):
    """x' = A x + (0, term(x) + W(t, x_true)) as one function of (t, x):
    the product [x, 1, s] M(t), with s = (term(x), K(x_true)) and M(t)
    holding A^T over x and, in the columns of the last entries, w(t) (or
    zeros), the identity over term(x) and D(t)^T over K."""
    a = np.asarray(a, dtype=float)
    dim = len(a)

    def rhs(t, x):
        x_true = x if track is None else x + ev.flatten_state(track.value(t))
        batch = x.shape[:-1]
        parts, rows = [x, np.ones(batch + (1,))], [np.zeros((1, width))]
        if pert.kind == "time":
            rows[0] = np.reshape(pert.w(np.array([t])), (1, width))
        if term is not None:
            parts.append(np.reshape(term(x), batch + (width,)))
            rows.append(np.eye(width))
        if pert.kind == "factored":
            parts.append(np.reshape([pert.k(row) for row in
                                     np.atleast_2d(x_true)], batch + (width,)))
            rows.append(pert.d(np.array([t]))[..., 0].T)
        z = np.concatenate(parts, axis=-1)
        m = np.zeros((z.shape[-1],) * 2)
        m[:dim, :dim] = a.T
        m[dim:, dim - width:dim] = np.vstack(rows)
        return z.dot(m)[..., :dim]
    return rhs


def _run_linear_cases():
    # (A, W, width, reference, state term), and the state's width
    a_h = np.array(A_H)
    chain = ev.make_model("chain", m=1, n=2)
    design, hurwitz = ev.build_gamma([[-1.0]], 2), ev.default_hurwitz(1)
    coupled = ev.PerturbationSpec.factored(
        lambda t: np.multiply.outer(np.ones((1, 1)), np.cos(3.0 * t)),
        lambda x: np.sin(x[:1]) + x[1:] ** 3, 1, freq_hint=3.0, state_dim=2)
    gain = ev.LinearController([[-1.0, -1.5]])
    model = ev.make_model("cubic")
    return {
        "zero": (a_h, ev.PerturbationSpec.zero(2), 2, None, None),
        "time": (a_h, ev.make_perturbation("vec_cos_sin_exp"), 2, None, None),
        "factored": (a_h, ev.make_perturbation("example1_bounded"), 2, None,
                     None),
        "implicit": (closed_loop_matrix(design, hurwitz),
                     ev.make_perturbation("cos_exp"), 1, None, None),
        "linear_gain": (_first_order(1, 2, 0), coupled, 1, None,
                        lambda x: model.eval_f(x, gain.solve(x))),
        "tracking": (closed_loop_matrix(design, hurwitz), coupled, 1,
                     ev.make_reference("sin_cos"), None),
    }


@pytest.mark.parametrize("rows", [None, 4], ids=["one", "batch"])
@pytest.mark.parametrize("case", ["zero", "time", "factored", "implicit",
                                  "linear_gain", "tracking"])
def test_run_linear_is_integrate_on_the_full_rhs_bit_for_bit(case, rows):
    # the structured stages ([x, 1, s] M(t), W's time rows once per step)
    # take the same steps to the same states as one function of (t, x)
    # that takes the same product
    a, pert, width, track, term = _run_linear_cases()[case]
    rng = np.random.default_rng(len(case))
    x0 = rng.uniform(-0.5, 0.5, (len(a),) if rows is None else (rows, len(a)))
    run = _run_linear(a, pert, width, x0, 0.5, 3.0, 1e-7, None, track, term)
    plain = ev.integrate(_full_rhs(a, pert, width, track, term), 0.5, x0, 3.0,
                         tol=1e-7, freq_hint=pert.freq_hint)
    assert np.array_equal(run.times, plain.times)
    assert run.states.tobytes() == plain.states.tobytes()
    assert run.diagnostics == plain.diagnostics


def _coupled_model():
    # coupled and state dependent in both channels; J_{F,U} = [[1, 0.6 u2^2],
    # [0.6 u1^2, 1]] is nonsingular while |u1 u2| < 1/0.6
    def f(x, u):
        return np.stack([
            u[:, 0] + 0.2 * u[:, 1] ** 3 + 0.1 * np.sin(x[:, 0]) * x[:, 3],
            u[:, 1] + 0.2 * u[:, 0] ** 3 + 0.1 * x[:, 1] * x[:, 2]], axis=1)
    return ev.SystemModel(2, 2, f, name="coupled")


class _NewtonInRhs:
    """The implicit controller's feedback behind a controller of no known
    kind, so that the closed loop solves it in every right-hand-side call."""

    def __init__(self, ctrl):
        self.solve = ctrl.solve


def test_implicit_shortcut_holds_on_a_coupled_model():
    # the shortcut runs the nonlinear loop as x' = closed_loop_matrix x + B W;
    # the generic loop (Newton in the right-hand side) and DOP853 on the
    # first-order form check it against paths that do not assume it
    model = _coupled_model()
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0], [-2.0]], 2),
                                  ev.default_hurwitz(2))
    pert = ev.make_perturbation("vec_cos_sin_exp")
    x0 = np.array([0.3, -0.2, 0.1, 0.05])
    short = ev.simulate_closed_loop(model, ctrl, pert, x0, 0.0, 3.0,
                                    tol=1e-10)
    ts = short.times
    generic = ev.simulate_closed_loop(model, _NewtonInRhs(ctrl), pert, x0,
                                      0.0, 3.0, tol=1e-10, sample_times=ts)

    def first_order(t, x):
        out = np.empty_like(x)
        out[:-2] = x[2:]
        out[-2:] = model.eval_f(x, ctrl.solve(x)) + pert.w(t)
        return out
    dop = scipy.integrate.solve_ivp(first_order, (0.0, 3.0), x0,
                                    method="DOP853", rtol=1e-12, atol=1e-14,
                                    t_eval=ts)
    assert dop.success
    for a, b in ((short.states, generic.states), (short.states, dop.y.T),
                 (generic.states, dop.y.T)):
        assert np.max(np.abs(a - b)) <= 1e-6
    # the stored inputs solve F(x, u) = -input_free_term(x)
    assert np.all(point_norms(ctrl.residual(short.states, short.inputs))
                  <= ctrl.tol)


def _inf_after(t_bad):
    # a finite scalar W that turns infinite after t_bad
    return ev.PerturbationSpec.from_signal(
        lambda t: np.where(t > t_bad, np.inf, np.cos(t)), 1)


@pytest.mark.parametrize("run", ["error", "error_batch", "designed",
                                 "linear_gain"])
def test_non_finite_disturbance_is_a_typed_failure(run):
    # a W that overflows on the RK path is a typed failure that verify
    # records, not a RuntimeWarning (an exception under -W error)
    pert = _inf_after(0.5)
    if run.startswith("error"):
        dim = 1
        sim = ev.make_error_factory(ev.default_hurwitz(1), pert, horizon=2.0)
    else:
        dim = 2
        model = ev.make_model("cubic")
        ctrl = (ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                       ev.default_hurwitz(1))
                if run == "designed"
                else ev.linearize_and_place(model, [-1.0, -2.0]))
        sim = ev.make_closed_loop_factory(model, ctrl, pert, horizon=2.0)
    x0 = np.full(dim, 0.2) if run != "error_batch" else np.array(
        [[0.2], [-0.1]])
    if run == "linear_gain":
        # F is passed the stage state that W made non-finite: the error
        # names that state, not F
        with pytest.raises(ev.EvaluationError, match="^F was passed a "
                           "non-finite state at component 1$") as exc:
            sim(0.0, x0)
        assert (exc.value.where, exc.value.component) == ("state", 1)
    else:
        with pytest.raises(ev.IntegrationError) as exc:
            sim(0.0, x0)
        assert exc.value.reason == "non-finite"
        assert exc.value.t_last <= 0.5
        assert exc.value.x_last.shape == x0.shape
        assert np.isfinite(exc.value.x_last).all()
    report = ev.verify_evuas(sim, delta0=0.2, t0_grid=[0.0],
                             eps_levels=[0.5], horizon=2.0, samples=2,
                             dim=dim)
    assert report.samples == 0 and len(report.sim_failures) == 6
    assert all("non-finite" in f["error"] for f in report.sim_failures)


def _padded(pert):
    # (0, w(t)): the disturbance enters the last block of the state
    return lambda t: np.concatenate([[0.0], np.ravel(pert.w(t))])


@pytest.mark.parametrize("name", ["chain", "cubic", "tanh"])
def test_propagated_closed_loop_matches_oracle(name):
    model = ev.make_model(name)
    design, hurwitz = ev.build_gamma([[-1.0]], 2), ev.default_hurwitz(1)
    ctrl = ev.synthesize_feedback(model, design, hurwitz)
    pert = ev.make_perturbation("cos_exp")
    x0 = np.array([0.3, -0.1])
    ts = np.linspace(0.0, 6.0, 601)
    traj = ev.simulate_closed_loop(model, ctrl, pert, x0, 0.0, 6.0,
                                   sample_times=ts)
    assert traj.diagnostics["tol"] == 1e-10       # the propagator's check
    ref = forced_linear_reference(closed_loop_matrix(design, hurwitz),
                                  _padded(pert), x0, ts)
    assert np.max(np.abs(traj.states - ref)) < 1e-10


def test_propagated_tracking_matches_oracle():
    model = ev.make_model("chain", m=1, n=2)
    design, hurwitz = ev.build_gamma([[-1.0]], 2), ev.default_hurwitz(1)
    pert = ev.make_perturbation("cos_exp")
    ts = np.linspace(0.0, 6.0, 601)
    traj = ev.simulate_tracking(model,
                                ev.ImplicitController(model, design, hurwitz),
                                ev.make_reference("sin_cos"), pert,
                                np.array([0.3, 1.0]), 0.0, 6.0,
                                sample_times=ts)
    assert traj.diagnostics["tol"] == 1e-10
    ref = forced_linear_reference(closed_loop_matrix(design, hurwitz),
                                  _padded(pert), [0.3, 0.0], ts)
    assert np.max(np.abs(traj.states - ref)) < 1e-10


def _one_state_at_a_time(f):
    # a map of one state, looped over the rows of a batch
    return lambda x, u: np.array([f(xr, ur) for xr, ur in zip(x, u)])


def test_closed_loop_inputs_match_a_per_row_solve():
    # the closed-loop verify sweep's batch at t0 = 1 (9 rows, 520 stored
    # times): each stored input against a Newton solve on the cubic map
    # written for one state
    model = ev.make_model("cubic")
    design, hurwitz = ev.build_gamma([[-1.0]], 2), ev.default_hurwitz(1)
    ctrl = ev.synthesize_feedback(model, design, hurwitz)
    dirs = unit_directions(2, 3, np.random.default_rng(3))
    x0s = np.concatenate([r * dirs for r in (0.5, 0.25, 0.125)])
    sim = ev.make_closed_loop_factory(
        model, ctrl, ev.make_perturbation("cos_exp"), 5.0, tol=1e-6)
    traj = sim(1.0, x0s)
    one_state = ev.ImplicitController(ev.SystemModel(
        1, 2, _one_state_at_a_time(lambda x, u: np.array([u[0] + u[0] ** 3])),
        jac_u=_one_state_at_a_time(
            lambda x, u: np.array([[1.0 + 3.0 * u[0] ** 2]]))),
        design, hurwitz)
    states = traj.states.reshape(-1, 2)
    want = np.array([newton_reference(one_state, x) for x in states])
    assert states.shape[0] > 1000
    assert np.max(np.abs(traj.inputs.reshape(-1, 1) - want)) <= 1e-15


def test_one_feedback_solve_per_run(monkeypatch):
    calls = {"solve": 0, "solve_shifted": 0}
    for attr in calls:
        orig = getattr(ev.ImplicitController, attr)

        def counted(self, *args, _orig=orig, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(ev.ImplicitController, attr, counted)
    model = ev.make_model("cubic")
    design, hurwitz = ev.build_gamma([[-1.0]], 2), ev.default_hurwitz(1)
    ctrl = ev.synthesize_feedback(model, design, hurwitz)
    pert = ev.make_perturbation("cos_exp")
    traj = ev.simulate_closed_loop(model, ctrl, pert, np.array([0.3, 0.0]),
                                   0.0, 2.0, tol=1e-6)
    assert traj.diagnostics["n_rhs"] > traj.times.size > 1
    assert traj.inputs.shape == (traj.times.size, 1)
    assert calls == {"solve": 1, "solve_shifted": 0}
    calls["solve"] = 0
    traj = ev.simulate_tracking(model, ctrl,
                                ev.make_reference("zero", m=1, n=2), pert,
                                np.array([0.3, 0.0]), 0.0, 2.0, tol=1e-6)
    assert traj.inputs.shape == (traj.times.size, 1)
    assert calls == {"solve": 0, "solve_shifted": 1}
    # a batch is one solve for every row at every stored time
    calls["solve_shifted"] = 0
    traj = ev.simulate_closed_loop(model, ctrl, pert,
                                   np.array([[0.3, 0.0], [-0.2, 0.1],
                                             [0.1, 0.4]]), 0.0, 2.0, tol=1e-6)
    assert traj.inputs.shape == (traj.times.size, 3, 1)
    assert calls == {"solve": 1, "solve_shifted": 0}
    # on a sample grid the states are propagated: still one solve a run
    ts = np.linspace(0.0, 2.0, 41)
    calls["solve"] = 0
    ev.simulate_closed_loop(model, ctrl, pert, np.array([0.3, 0.0]), 0.0,
                            2.0, sample_times=ts)
    ev.simulate_tracking(model, ctrl, ev.make_reference("zero", m=1, n=2),
                         pert, np.array([0.3, 0.0]), 0.0, 2.0,
                         sample_times=ts)
    assert calls == {"solve": 1, "solve_shifted": 1}


def test_stored_inputs_are_cold_one_state_solves():
    # each reported input is the one-state solve from U = 0, bit for bit,
    # and within round-off of a chain of solves along the row, each
    # warm-started from the input at the time before
    model = ev.make_model("cubic")
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    traj = ev.simulate_closed_loop(
        model, ctrl, ev.make_perturbation("cos_exp"),
        np.array([[0.3, 0.0], [-0.6, 0.1], [0.1, 0.9]]), 0.0, 2.0, tol=1e-6)
    for j in range(3):
        warm = None
        for i, x in enumerate(traj.states[:, j]):
            assert np.array_equal(traj.inputs[i, j], newton_reference(ctrl, x))
            warm = newton_reference(ctrl, x, warm)
            assert np.max(np.abs(traj.inputs[i, j] - warm)) < 1e-11


def _tanh_controller():
    model = ev.make_model("tanh")
    return model, ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                         ev.default_hurwitz(1))


def test_batch_failure_is_the_earliest_time_then_the_lowest_row():
    # on the designed loop x1 + 2 x2 = (x1(0) + 2 x2(0) - (x1(0) + x2(0)) t)
    # e^-t, and the feedback exists only while it stays inside (-1, 1):
    # row 1 leaves that domain at about t = 0.14, row 0 at about 0.31
    model, ctrl = _tanh_controller()
    ts = np.linspace(0.0, 2.0, 201)
    x0s = np.array([[-10.0, 4.9], [-20.0, 9.9]])
    alone = []
    for x0 in x0s:
        with pytest.raises(ev.ControllerEvaluationError) as exc:
            ev.simulate_closed_loop(model, ctrl, None, x0, 0.0, 2.0,
                                    tol=1e-8, sample_times=ts)
        assert exc.value.row is None and "row" not in str(exc.value)
        alone.append(exc.value.t)
    assert alone[1] < alone[0]
    with pytest.raises(ev.ControllerEvaluationError) as exc:
        ev.simulate_closed_loop(model, ctrl, None, x0s, 0.0, 2.0, tol=1e-8,
                                sample_times=ts)
    assert exc.value.t == alone[1] and exc.value.row == 1
    assert f"at t={alone[1]} in row 1:" in str(exc.value)
    # one solve over every (time, row) pair: the flat index, time-major
    k = int(np.flatnonzero(ts == alone[1])[0])
    cause = exc.value.__cause__
    assert isinstance(cause, ev.NewtonError) and cause.row == k * 2 + 1
    assert np.array_equal(exc.value.x, cause.x)
    assert exc.value.residual == cause.residual


def test_tracking_failure_is_the_closed_loop_failure():
    # under the zero reference the deviation is the state, so the tracking
    # run fails where the closed loop does, at the same point
    model, ctrl = _tanh_controller()
    ts = np.linspace(0.0, 2.0, 201)
    x0 = np.array([-20.0, 9.9])
    with pytest.raises(ev.ControllerEvaluationError) as loop:
        ev.simulate_closed_loop(model, ctrl, None, x0, 0.0, 2.0,
                                sample_times=ts)
    with pytest.raises(ev.ControllerEvaluationError) as exc:
        ev.simulate_tracking(model, ctrl, ev.make_reference("zero"), None,
                             x0, 0.0, 2.0, sample_times=ts)
    assert exc.value.t == ts[14] and exc.value.row is None
    assert "row" not in str(exc.value)
    assert exc.value.t == loop.value.t
    assert np.array_equal(exc.value.x, loop.value.x)
    assert exc.value.residual == loop.value.residual
    assert isinstance(exc.value.__cause__, ev.NewtonError)


def test_controller_failure_on_sample_grid_chains_newton_error():
    model = ev.make_model("tanh")
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    ts = np.linspace(0.0, 5.0, 51)
    with pytest.raises(ev.ControllerEvaluationError) as exc:
        ev.simulate_closed_loop(model, ctrl, None, np.array([3.0, 0.0]),
                                0.0, 5.0, tol=1e-8, sample_times=ts)
    assert exc.value.t in ts
    assert isinstance(exc.value.__cause__, ev.NewtonError)
    assert exc.value.residual == exc.value.__cause__.residual


def test_batched_factored_disturbance_rows_match_serial():
    # K is written for one state; on a two-row batch, reading the rows as
    # components would run without a shape error and give wrong answers
    hurwitz = ev.build_hurwitz(A_H)
    pert = ev.make_perturbation("example1_bounded")
    e0s = np.array([[-1.0, 1.5], [0.4, -0.2]])
    tol = 1e-8
    batch = ev.simulate_error_dynamics(hurwitz, pert, e0s, 0.0, 4.0, tol=tol)
    assert batch.states.shape == (batch.times.size, 2, 2)
    for j, e0 in enumerate(e0s):
        alone = ev.simulate_error_dynamics(hurwitz, pert, e0, 0.0, 4.0,
                                           tol=tol)
        assert np.max(np.abs(batch.states[-1, j] - alone.states[-1])) \
            <= 100 * tol


def test_factored_error_run_is_the_plain_rhs_bit_for_bit():
    # the runner's right-hand side is A e + D(t) K(e) as the product
    # [e, 1, K(e)] M(t), to the last bit, on a sample grid and on the
    # stored steps
    pert = ev.make_perturbation("example1_bounded")
    rhs = _full_rhs(A_H, pert, 2)
    for samples in (np.linspace(0.0, 3.0, 601), None):
        run = ev.simulate_error_dynamics(ev.build_hurwitz(A_H), pert,
                                         [-1.0, 1.5], 0.0, 3.0, tol=1e-7,
                                         sample_times=samples)
        plain = ev.integrate(rhs, 0.0, [-1.0, 1.5], 3.0, tol=1e-7,
                             freq_hint=pert.freq_hint, sample_times=samples)
        assert np.array_equal(run.times, plain.times)
        assert np.array_equal(run.states, plain.states)
        assert run.diagnostics == plain.diagnostics


@pytest.mark.parametrize("width", [2, 4])
def test_example1_bounded_k_is_its_formula_bit_for_bit(width, rng):
    # K reads the first two entries of a state of any width (a closed loop
    # passes its whole state); signed zeros must come out as the formula's
    k = ev.make_perturbation("example1_bounded").k
    xs = rng.standard_normal((500, width)) * 10.0 ** rng.uniform(
        -8.0, 8.0, (500, 1))
    xs[:20, :2] = [[0.0, -0.0], [-0.0, 0.0], [-1.0, -0.0], [-0.0, -1.0],
                   [1.0, -3.0]] * 4
    for x in xs:
        want = np.array([-x[1], 2 * (np.cbrt(x[0]) + x[1] + 1)])
        assert k(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["designed_time", "designed_factored",
                                  "linear_gain"])
def test_closed_loop_factory_batch_rows_match_serial(case):
    if case == "linear_gain":
        model = ev.make_model("chain", m=1, n=2)
        ctrl = ev.linearize_and_place(model, [-1.0, -2.0])
        pert = ev.make_perturbation("cos_exp")
    else:
        model = ev.make_model("chain", m=2, n=2)
        ctrl = ev.synthesize_feedback(model,
                                      ev.build_gamma([[-1.0], [-2.0]], 2),
                                      ev.default_hurwitz(2))
        pert = ev.make_perturbation("vec_cos_sin_exp"
                                    if case == "designed_time"
                                    else "example1_bounded")
    dim, tol = model.state_dim, 1e-8
    x0s = np.linspace(-0.4, 0.5, 2 * dim).reshape(2, dim)
    sim = ev.make_closed_loop_factory(model, ctrl, pert, 3.0, tol=tol)
    batch = sim(1.0, x0s)
    assert batch.states.shape == (batch.times.size, 2, dim)
    assert batch.inputs.shape == (batch.times.size, 2, model.m)
    direct = ev.simulate_closed_loop(model, ctrl, pert, x0s, 1.0, 4.0,
                                     tol=tol)
    assert np.array_equal(direct.times, batch.times)
    assert np.array_equal(direct.states, batch.states)
    assert np.array_equal(direct.inputs, batch.inputs)
    for j, x0 in enumerate(x0s):
        alone = sim(1.0, x0)
        assert alone.inputs.shape == (alone.times.size, model.m)
        assert np.max(np.abs(batch.states[-1, j] - alone.states[-1])) \
            <= 100 * tol
        assert np.max(np.abs(batch.inputs[-1, j] - alone.inputs[-1])) \
            <= 100 * tol
    with pytest.raises(ev.ShapeError):
        sim(1.0, np.zeros((2, dim + 1)))


@pytest.mark.parametrize("kind", ["zero", "time", "factored"])
def test_error_dynamics_one_row_batch_is_the_single_run(kind):
    pert = {"zero": None, "time": ev.make_perturbation("vec_cos_sin_exp"),
            "factored": ev.make_perturbation("example1_bounded")}[kind]
    e0 = np.array([-1.0, 1.5])
    hurwitz = ev.build_hurwitz(A_H)
    alone = ev.simulate_error_dynamics(hurwitz, pert, e0, 0.0, 3.0, tol=1e-8)
    batch = ev.simulate_error_dynamics(hurwitz, pert, e0[None], 0.0, 3.0,
                                       tol=1e-8)
    assert np.array_equal(batch.times, alone.times)
    assert np.array_equal(batch.states[:, 0], alone.states)


def test_another_controller_sees_the_whole_batch_once_per_evaluation():
    model = ev.make_model("chain", m=1, n=2)
    ctrl = ev.linearize_and_place(model, [-1.0, -2.0])
    shapes, solve = [], ctrl.solve
    ctrl.solve = lambda x: shapes.append(np.shape(x)) or solve(x)
    x0s = np.array([[0.3, 0.0], [-0.2, 0.1], [0.0, 0.4]])
    traj = ev.simulate_closed_loop(model, ctrl, ev.make_perturbation(
        "cos_exp"), x0s, 0.0, 2.0, tol=1e-6)
    # one call per right-hand-side evaluation, then one on all stored states
    assert shapes == ([(3, 2)] * traj.diagnostics["n_rhs"]
                      + [(3 * traj.times.size, 2)])


@pytest.mark.parametrize("case", ["designed", "designed_grid",
                                  "linear_gain"])
def test_closed_loop_one_row_batch_is_the_single_run(case):
    if case.startswith("designed"):
        model = ev.make_model("cubic")
        ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                      ev.default_hurwitz(1))
    else:
        model = ev.make_model("chain", m=1, n=2)
        ctrl = ev.linearize_and_place(model, [-1.0, -2.0])
    pert = ev.make_perturbation("cos_exp")
    x0 = np.array([0.3, -0.1])
    ts = np.linspace(0.0, 3.0, 61) if case == "designed_grid" else None
    alone = ev.simulate_closed_loop(model, ctrl, pert, x0, 0.0, 3.0,
                                    tol=1e-8, sample_times=ts)
    batch = ev.simulate_closed_loop(model, ctrl, pert, x0[None], 0.0, 3.0,
                                    tol=1e-8, sample_times=ts)
    assert np.array_equal(batch.times, alone.times)
    assert np.array_equal(batch.states[:, 0], alone.states)
    assert np.array_equal(batch.inputs[:, 0], alone.inputs)


def test_tracking_zero_reference_reduces_to_stabilization():
    model, ctrl = _chain_controller()
    x0 = np.array([0.37, -0.21])
    ts = np.linspace(0.0, 3.0, 61)
    loop = ev.simulate_closed_loop(model, ctrl, None, x0, 0.0, 3.0, tol=1e-9,
                                   sample_times=ts)
    track = ev.simulate_tracking(
        model, ctrl, ev.make_reference("zero", m=1, n=2), None, x0, 0.0, 3.0,
        tol=1e-9, sample_times=ts)
    assert np.array_equal(loop.states, track.states)
    assert np.array_equal(loop.inputs, track.inputs)


def test_tracking_sine_reference():
    model = ev.make_model("chain", m=1, n=2)
    traj = ev.simulate_tracking(
        model, _implicit(model, [[-1.0]]), ev.make_reference("sin_cos"),
        None, np.array([0.3, 1.0]), 0.0, 20.0, tol=1e-9)
    assert np.allclose(traj.states[0], [0.3, 0.0], atol=1e-12)
    assert traj.norms()[-1] < 1e-6


def test_tracking_with_diminishing_perturbation_decays():
    model = ev.make_model("chain", m=1, n=2)
    pert = ev.make_perturbation("cos_exp")
    traj = ev.simulate_tracking(
        model, _implicit(model, [[-1.0]]), ev.make_reference("sin_cos"),
        pert, np.array([0.3, 1.0]), 0.0, 8.0, tol=1e-8)
    assert traj.norms()[-1] < 5e-3             # pinned from a reference run


def test_tracking_rejects_inadmissible_reference():
    model = ev.SystemModel(1, 2, lambda x, u: x[:, :1] + u,
                           name="state_coupled")
    with pytest.raises(ValueError, match="inadmissible"):
        ev.simulate_tracking(
            model, _implicit(model, [[-1.0]]), ev.make_reference("sin_cos"),
            None, np.array([0.3, 1.0]), 0.0, 5.0, tol=1e-8)


def test_tracking_takes_an_implicit_controller_for_its_model():
    model = ev.make_model("chain", m=1, n=2)
    other = ev.make_model("chain", m=1, n=2)
    for ctrl in (ev.linearize_and_place(model, [-1.0, -1.0]),
                 _implicit(other, [[-1.0]])):
        with pytest.raises(ev.DesignError, match="ImplicitController built"):
            ev.simulate_tracking(model, ctrl, ev.make_reference("sin_cos"),
                                 None, np.array([0.3, 1.0]), 0.0, 1.0)


def test_tracking_rejects_a_reference_of_another_shape():
    model = ev.make_model("chain", m=2, n=3)
    with pytest.raises(ev.ShapeError, match="reference 'sin_cos'"):
        ev.simulate_tracking(
            model, _implicit(model, [[-1.0, -1.0], [-2.0, -2.0]]),
            ev.make_reference("sin_cos"), None, np.zeros(6), 0.0, 5.0)


def test_make_reference_rejects_a_shape_it_does_not_have():
    with pytest.raises(ValueError, match="m=1, n=2"):
        ev.make_reference("sin_cos", m=2, n=3)
    ref = ev.make_reference("zero", m=2, n=3)
    assert (ref.m, ref.n) == (2, 3)


@pytest.mark.parametrize("ts", [None, np.linspace(0.0, 1.0, 11)],
                         ids=["integrate", "propagate"])
def test_error_state_of_the_wrong_width_is_rejected(ts):
    # checked once, before either path; not numpy's matmul error
    with pytest.raises(ev.ShapeError, match=r"e0: expected shape \(2,\)"):
        ev.simulate_error_dynamics(ev.default_hurwitz(2), None,
                                   [1.0, 0.0, 0.0], 0.0, 1.0,
                                   sample_times=ts)


@pytest.mark.parametrize("ts", [None, np.linspace(0.0, 1.0, 11)],
                         ids=["integrate", "propagate"])
def test_disturbance_of_the_wrong_width_is_rejected(ts):
    # cos_exp has one component: it would be broadcast over two
    pert = ev.make_perturbation("cos_exp")
    with pytest.raises(ev.ShapeError, match="1 components"):
        ev.simulate_error_dynamics(ev.default_hurwitz(2), pert, [0.0, 0.0],
                                   0.0, 1.0, sample_times=ts)
    model = ev.make_model("chain", m=2, n=2)
    design, hurwitz = ev.build_gamma([[-1.0], [-2.0]], 2), \
        ev.default_hurwitz(2)
    for ctrl in (ev.synthesize_feedback(model, design, hurwitz),
                 ev.linearize_and_place(model, [-1.0, -1.0, -2.0, -2.0])):
        with pytest.raises(ev.ShapeError, match="1 components"):
            ev.simulate_closed_loop(model, ctrl, pert, np.zeros(4), 0.0, 1.0,
                                    sample_times=ts)
    with pytest.raises(ev.ShapeError, match="1 components"):
        ev.simulate_tracking(model,
                             ev.ImplicitController(model, design, hurwitz),
                             ev.make_reference("zero", m=2, n=2), pert,
                             np.zeros(4), 0.0, 1.0, sample_times=ts)
    # a zero disturbance has no width to get wrong
    ev.simulate_error_dynamics(ev.default_hurwitz(2), ev.make_perturbation(
        "zero"), [0.0, 0.0], 0.0, 1.0, sample_times=ts)


def _counted(fn, calls):
    def counted(*args):
        calls.append(args[0])
        return fn(*args)
    return counted


@pytest.mark.parametrize("case", ["scalar_w", "narrow_k", "square_d"])
def test_w_of_the_wrong_shape_fails_before_the_run(case):
    # a scalar w(t) at dim 2 drove both channels with one value, and a K of
    # width 1 died in numpy's matmul; each is checked once, at t0, naming
    # the perturbation
    d2 = lambda t: np.multiply.outer(np.eye(2), np.cos(t))
    pert = {
        "scalar_w": ev.PerturbationSpec.from_signal(
            lambda t: np.cos(np.asarray(t, dtype=float)), 2, name="cos2"),
        "narrow_k": ev.PerturbationSpec.factored(
            d2, lambda x: x[:1], 2, name="cos2"),
        "square_d": ev.PerturbationSpec.factored(
            lambda t: np.cos(t) * np.ones(2), lambda x: x, 2, name="cos2"),
    }[case]
    what = {"scalar_w": "w", "narrow_k": "K", "square_d": "D"}[case]
    with pytest.raises(ev.ShapeError, match=rf"^perturbation 'cos2' at "
                       rf"t0=0\.5: {what}"):
        ev.simulate_error_dynamics(ev.default_hurwitz(2), pert,
                                   np.array([[0.3, 0.1], [0.0, 1.0]]), 0.5,
                                   2.0)


def test_a_flat_d_at_dim_1_raises_shape_error():
    # only a time signal's (N,) stands for (1, N); D of dim 1 is (1, 1, N)
    pert = ev.PerturbationSpec.factored(np.cos, lambda x: x, 1, name="flat")
    with pytest.raises(ev.ShapeError, match=r"^perturbation 'flat' at "
                       r"t0=0\.0: D\(t\): expected shape \(1, 1, 1\), got "
                       r"\(1,\)$"):
        ev.simulate_error_dynamics(ev.default_hurwitz(1), pert, [0.5], 0.0,
                                   2.0)
    with pytest.raises(ev.ShapeError, match=r"^D\(t\): expected shape "
                       r"\(1, 1, 5\), got \(5,\)$"):
        pert.evaluate(np.linspace(0.0, 2.0, 5), [0.5])


@pytest.mark.parametrize("kind", ["time", "time_int", "factored"])
def test_w_is_checked_once_per_run(kind):
    # one call of w (or D) per attempted step, on its five stage times (the
    # last stage shares the new time with the fifth), plus one at t0 for
    # the first derivative, which is also the check at t0, and one for the
    # initial-step probe; K once per row at t0 on top of one per row and
    # stage derivative.  A w of integer values takes the full check, on
    # the value of that one call (it was called twice)
    w_calls, k_calls = [], []
    if kind == "time":
        pert = ev.PerturbationSpec.from_signal(
            _counted(lambda t: np.cos(t) * np.ones(np.shape(t)), w_calls), 1)
    elif kind == "time_int":
        pert = ev.PerturbationSpec.from_signal(
            _counted(lambda t: np.ones(np.shape(t), dtype=int), w_calls), 1)
    else:
        pert = ev.PerturbationSpec.factored(
            _counted(lambda t: np.multiply.outer(np.eye(1), np.cos(t)),
                     w_calls), _counted(lambda x: x[:1], k_calls), 1)
    x0s = np.array([[0.5], [-0.2], [0.1]])
    traj = ev.simulate_error_dynamics(ev.default_hurwitz(1), pert, x0s, 0.0,
                                      2.0, tol=1e-6)
    diag = traj.diagnostics
    n_rhs, steps = diag["n_rhs"], diag["n_accepted"] + diag["n_rejected"]
    assert n_rhs == 6 * steps + 2
    assert len(w_calls) == steps + 2
    assert all(isinstance(t, np.ndarray) and t.ndim == 1 for t in w_calls)
    assert [t.tolist() for t in w_calls[:1]] == [[0.0]]
    assert [t.size for t in w_calls] == [1, 1] + [5] * steps
    assert len(k_calls) == (len(x0s) * (n_rhs + 1) if kind == "factored"
                            else 0)


def _wide_k_below(x):
    # K(x) is (2,) until x[0] falls below -0.5, then (3,)
    return np.zeros(3) if x[0] < -0.5 else np.array([-1.0, 0.0])


_AT_T = r"^perturbation None at t=[\d.]+: "
_AT_STEP = r"^perturbation None at t in \[[\d.]+, [\d.]+\]: "


@pytest.mark.parametrize("factor, e0, match", [
    ("k", [-0.4, 0.0], _AT_T + r"K\(x\): expected shape \(2,\), got \(3,\)$"),
    ("k", [[0.3, 0.0], [-0.4, 0.0]],
     _AT_T + r"K\(x\) in row 1: expected shape \(2,\), got \(3,\)$"),
    ("d", [0.3, 0.0],
     _AT_STEP + r"D\(t\): expected shape \(2, 2, 5\), got \(3, 3, 5\)$"),
    ("d", [[0.3, 0.0], [-0.4, 0.0]],
     _AT_STEP + r"D\(t\): expected shape \(2, 2, 5\), got \(3, 3, 5\)$")],
    ids=["k_one", "k_batch", "d_one", "d_batch"])
def test_a_factor_changing_shape_mid_run_raises_shape_error(factor, e0, match):
    # the check at t0 passes; the product later died in numpy ("shapes not
    # aligned" on one state, "inhomogeneous shape" on a batch).  D turns
    # (3, 3, N) on the first step that reaches past t = 1
    if factor == "k":
        pert = ev.PerturbationSpec.factored(
            lambda t: np.multiply.outer(np.eye(2), np.ones(np.shape(t))),
            _wide_k_below, 2)
    else:
        pert = ev.PerturbationSpec.factored(
            lambda t: np.multiply.outer(np.eye(3 if np.max(t) > 1.0 else 2),
                                        np.ones(np.shape(t))),
            lambda x: -x, 2)
    with pytest.raises(ev.ShapeError, match=match):
        ev.simulate_error_dynamics(ev.default_hurwitz(2), pert, e0, 0.0, 5.0)


def _narrows_after_one(t):
    # (cos t, sin t) until a time past 1, then (cos t,)
    return np.array([np.cos(t)] if np.max(t) > 1.0
                    else [np.cos(t), np.sin(t)])


def _scalar_k_below(x):
    # K(x) is (2,) until x[0] falls below -0.5, then a scalar
    return np.float64(1.0) if x[0] < -0.5 else np.array([-1.0, 0.0])


@pytest.mark.parametrize("e0", [[-0.4, 0.0], [[0.3, 0.0], [-0.4, 0.0]]],
                         ids=["one", "batch"])
@pytest.mark.parametrize("case", ["time", "k", "dim_1"])
def test_w_keeps_its_t0_shape_for_the_whole_run(case, e0):
    # the narrowed time signal was broadcast to both channels to the end of
    # the run, and the scalar K on one state died in numpy ("non-broadcastable
    # output operand").  Every call of w is checked by the rule of its t0
    # call: at dim 1 it may give (N,) or (1, N), but not the time-major
    # (N, 1) that it turns to past t = 1 here
    e0 = np.array(e0)
    step = r"t in \[[\d.]+, [\d.]+\]"
    if case == "time":
        pert = ev.PerturbationSpec.from_signal(_narrows_after_one, 2,
                                               name="late")
        match = (rf"^perturbation 'late' at {step}: w\(t\): expected "
                 r"shape \(2, 5\), got \(1, 5\)$")
    elif case == "k":
        pert = ev.PerturbationSpec.factored(
            lambda t: np.multiply.outer(np.eye(2), np.ones(np.shape(t))),
            _scalar_k_below, 2, name="k_scalar")
        match = (r"^perturbation 'k_scalar' at t=[\d.]+: K\(x\)"
                 + ("" if e0.ndim == 1 else " in row 1")
                 + r": expected shape \(2,\), got \(\)$")
    else:
        e0 = e0[..., :1]
        pert = ev.PerturbationSpec.from_signal(
            lambda t: np.cos(t) if np.max(t) <= 1.0 else np.cos(t)[:, None],
            1, name="grows")
        match = (rf"^perturbation 'grows' at {step}: w\(t\): expected "
                 r"shape \(N,\) or \(dim, N\) on N = 5 times, got "
                 r"\(5, 1\)$")
    with pytest.raises(ev.ShapeError, match=match):
        ev.simulate_error_dynamics(ev.default_hurwitz(e0.shape[-1]), pert, e0,
                                   0.0, 5.0)


def _scalar_after_one(t):
    # the identity (as (2, 2, N)) until a time past 1, then 2.0
    if np.max(t) > 1.0:
        return np.float64(2.0)
    return np.multiply.outer(np.eye(2), np.ones(np.shape(t)))


@pytest.mark.parametrize("e0", [[0.3, 0.1], [[0.3, 0.1], [0.2, 0.0]]],
                         ids=["one", "batch"])
def test_a_d_turning_scalar_mid_run_raises_shape_error(e0):
    # on one state the scalar D scaled K to the end of the run
    pert = ev.PerturbationSpec.factored(_scalar_after_one, lambda x: -x, 2)
    with pytest.raises(ev.ShapeError, match=_AT_STEP + r"D\(t\): expected "
                       r"shape \(2, 2, 5\), got \(\)$"):
        ev.simulate_error_dynamics(ev.default_hurwitz(2), pert, e0, 0.0, 3.0)


@pytest.mark.parametrize("e0", [[0.3], [[0.3], [-0.2]]], ids=["one", "batch"])
@pytest.mark.parametrize("w, got", [
    (lambda t: None, "None"),
    (lambda t: np.exp(1j * t), "values of dtype complex128")],
    ids=["none", "complex"])
def test_a_w_of_no_real_values_raises_shape_error(w, got, e0):
    # None died in numpy's add; a complex w lost its imaginary part with
    # only a ComplexWarning
    pert = ev.PerturbationSpec.from_signal(w, 1, name="unreal")
    match = (r"^perturbation 'unreal' at t0=0\.0: w\(t\): expected real "
             rf"values, got {got}$")
    with pytest.raises(ev.ShapeError, match=match):
        ev.simulate_error_dynamics(ev.default_hurwitz(1), pert, e0, 0.0, 3.0)


def _complex_after_one(kind):
    # real until a time past 1, then (1 + 1j) times its value
    def turn(t, v):
        return v * (1 + 1j) if np.max(t) > 1.0 else v
    if kind == "d":
        return ev.PerturbationSpec.factored(
            lambda t: turn(t, np.multiply.outer(np.eye(2),
                                                np.ones(np.shape(t)))),
            lambda x: -x, 2, name="turns")
    return ev.PerturbationSpec.from_signal(
        lambda t: turn(t, np.stack([np.cos(t), np.sin(t)])), 2, name="turns")


@pytest.mark.parametrize("e0", [[0.3, 0.1], [[0.3, 0.1], [0.2, 0.0]]],
                         ids=["one", "batch"])
@pytest.mark.parametrize("kind", ["d", "w"])
def test_a_factor_turning_complex_mid_run_raises_shape_error(kind, e0):
    # the complex D lost its imaginary part with only a ComplexWarning, and
    # the complex w died in numpy's untyped add
    factor = "D" if kind == "d" else "w"
    match = (rf"^perturbation 'turns' at t in \[[\d.]+, [\d.]+\]: "
             rf"{factor}\(t\): expected real values, got values of dtype "
             r"complex128$")
    with pytest.raises(ev.ShapeError, match=match):
        ev.simulate_error_dynamics(ev.default_hurwitz(2),
                                   _complex_after_one(kind), e0, 0.0, 3.0)


@pytest.mark.parametrize("e0, where", [
    ([0.3, 0.1], "K"), ([[0.3, 0.1], [0.25, 0.0]], "K in row 1")],
    ids=["one", "batch"])
def test_a_k_turning_complex_mid_run_raises_shape_error(e0, where):
    # K(x) was cast to float with only a ComplexWarning
    pert = ev.PerturbationSpec.factored(
        lambda t: np.multiply.outer(np.eye(2), np.ones(np.shape(t))),
        lambda x: -x * (1j if x[0] < 0.2 else 1.0), 2, name="kc")
    where = where.replace("K", r"K\(x\)")
    with pytest.raises(ev.ShapeError, match=rf"^perturbation 'kc' at "
                       rf"t=0\.\d+: {where}: expected real values, got "
                       r"values of dtype complex128$"):
        ev.simulate_error_dynamics(ev.default_hurwitz(2), pert, e0, 0.0, 3.0)


@pytest.mark.parametrize("fn", [math.cos, lambda t: float(np.cos(t))],
                         ids=["math_cos", "float_of_numpy"])
@pytest.mark.parametrize("factor", ["w", "d"])
def test_a_one_time_factor_raises_shape_error(factor, fn):
    # w and D are called on 1-d arrays of times only: a callable of one
    # float time ran on the integrator (which called it per stage time) but
    # died in classify with a bare TypeError
    if factor == "w":
        pert = ev.PerturbationSpec.from_signal(fn, 1, name="one_time")
    else:
        pert = ev.PerturbationSpec.factored(
            lambda t: np.reshape(fn(t), (1, 1)), lambda x: x, 1,
            name="one_time")
    what = rf"{factor.upper() if factor == 'd' else 'w'}\(t\): the callable " \
        r"must take a 1-d array of times; on one it raised TypeError: "
    with pytest.raises(ev.ShapeError, match=r"^perturbation 'one_time' at "
                       r"t0=0\.0: " + what) as exc:
        ev.simulate_error_dynamics(ev.default_hurwitz(1), pert, [0.5], 0.0,
                                   2.0)
    assert isinstance(exc.value.__cause__, TypeError)
    for call in (lambda: pert.columns()[0](np.linspace(0.0, 1.0, 5)),
                 lambda: ev.classify(pert, 1.0, 4.0, profile_grid=[0.0, 1.0])):
        with pytest.raises(ev.ShapeError, match="^" + what):
            call()


def test_tracking_rejects_inconsistent_reference():
    bad = ev.TrackingSpec(lambda t: np.array([[np.sin(t), np.sin(t)]]),
                          lambda t: np.array([-np.sin(t)]), m=1, n=2)
    model = ev.make_model("chain", m=1, n=2)
    with pytest.raises(ValueError, match="derivative"):
        ev.simulate_tracking(model, _implicit(model, [[-1.0]]), bad, None,
                             np.array([0.3, 1.0]), 0.0, 5.0, tol=1e-8)


def _no_run(*args, **kwargs):
    raise AssertionError("the reference was not checked before the run")


@pytest.mark.parametrize("m, x_d, y_d_n, error, match", [
    (1, lambda t: np.array([[np.sin(t), np.cos(t)]]),
     lambda t: np.array([np.sin(t)]), ValueError,
     "^y_d_n is not the derivative of column 1 at"),
    (2, lambda t: np.zeros((2, 2)), lambda t: np.zeros(1), ev.ShapeError,
     r"^y_d_n\(t\): expected shape \(2,\), got \(1,\)$"),
    (1, lambda t: np.array([[np.sin(t), np.cos(t)]]), lambda t: -np.sin(t),
     ev.ShapeError, r"^y_d_n\(t\): expected shape \(1,\), got \(\)$"),
    (1, lambda t: np.zeros(2), lambda t: np.zeros(1), ev.ShapeError,
     r"^x_d\(t\): expected shape \(1, 2\), got \(2,\)$")],
    ids=["wrong_sign", "one_for_two_channels", "scalar", "flat_x_d"])
def test_tracking_checks_the_feedforward_before_the_run(
        monkeypatch, m, x_d, y_d_n, error, match):
    # each used to run: the sign slip reported inputs off by up to 1.99,
    # the (1,) feedforward was broadcast to both channels, and the scalar
    # one failed after the run with numpy's core-dimension error
    model = ev.make_model("chain", m=m, n=2)
    poles = [[-1.0], [-2.0]][:m]
    monkeypatch.setattr("evuas.simulate.integrate", _no_run)
    monkeypatch.setattr("evuas.simulate.propagate_linear", _no_run)
    for ts in (None, np.linspace(0.0, 5.0, 51)):
        with pytest.raises(error, match=match):
            ev.simulate_tracking(model, _implicit(model, poles),
                                 ev.TrackingSpec(x_d, y_d_n, m=m, n=2), None,
                                 np.full(2 * m, 0.3), 0.0, 5.0,
                                 sample_times=ts)


def test_tracking_spec_rejects_non_integral_sizes():
    # m = 1.7, n = 2.2 are not truncated to m = 1, n = 2
    x_d, y_d_n = (lambda t: np.zeros((1, 2))), (lambda t: np.zeros(1))
    for m, n, match in ((1.7, 2, "^m: expected an integer"),
                        (1, 2.2, "^n: expected an integer"),
                        (0, 2, "^m must be >= 1")):
        with pytest.raises(ValueError, match=match):
            ev.TrackingSpec(x_d, y_d_n, m=m, n=n)
    track = ev.TrackingSpec(x_d, y_d_n, m=np.int64(1), n=np.int64(2))
    assert (track.m, track.n) == (1, 2) and type(track.m) is int


def test_trajectory_csv_round_trip(tmp_path):
    import csv
    model, ctrl = _chain_controller()
    ts = np.linspace(0.0, 2.0, 21)
    traj = ev.simulate_closed_loop(model, ctrl, None, np.array([0.5, 0.0]),
                                   0.0, 2.0, tol=1e-9, sample_times=ts)
    path = tmp_path / "traj.csv"
    ev.trajectory_to_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_1", "x_2", "u_1", "norm"]
    assert len(rows) == 22
    back = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(back[:, 0], ts)        # 17 digits round-trip floats
    assert np.array_equal(back[:, 1:3], traj.states)
    raw = path.read_bytes()
    assert b"\r\n" in raw                        # RFC-4180 line endings


def test_trajectory_csv_rejects_a_batch(tmp_path):
    traj = ev.simulate_error_dynamics(ev.build_hurwitz(A_H), None,
                                      [[1.0, 0.0], [0.0, 1.0]], 0.0, 1.0,
                                      tol=1e-8,
                                      sample_times=np.linspace(0.0, 1.0, 11))
    assert traj.states.shape == (11, 2, 2)
    path = tmp_path / "batch.csv"
    with pytest.raises(ev.ShapeError, match=r"\(11, 2, 2\)"):
        ev.trajectory_to_csv(traj, path)
    assert not path.exists()


def test_trajectory_diagnostics_sidecar(tmp_path):
    import json
    traj = ev.simulate_error_dynamics(ev.build_hurwitz(A_H), None,
                                      [1.0, 0.0], 0.0, 1.0, tol=1e-8)
    path = tmp_path / "diag.json"
    ev.diagnostics_to_json(traj, path)
    d = json.loads(path.read_text())
    assert d["n_accepted"] > 0 and d["tol"] == 1e-8


def test_concurrent_trajectories_share_controller():
    # interleaved runs from one controller instance give identical results
    model, ctrl = _chain_controller()
    a1 = ev.simulate_closed_loop(model, ctrl, None, np.array([0.5, 0.0]),
                                 0.0, 3.0, tol=1e-9)
    b1 = ev.simulate_closed_loop(model, ctrl, None, np.array([-0.2, 0.4]),
                                 0.0, 3.0, tol=1e-9)
    a2 = ev.simulate_closed_loop(model, ctrl, None, np.array([0.5, 0.0]),
                                 0.0, 3.0, tol=1e-9)
    assert np.array_equal(a1.states, a2.states)
    assert not np.array_equal(a1.states[-1], b1.states[-1])
