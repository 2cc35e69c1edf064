import numpy as np
import pytest
from oracles import forced_linear_reference, newton_reference

import evuas as ev
from evuas.synthesis import closed_loop_matrix

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

    def rhs(t, x):
        if track is None:
            return ev.evaluate_dynamics(model, pert, t, x, feedback(t, x))
        # deviation dynamics: the reference's nth derivative comes off
        x_true = x + ev.flatten_state(track.value(t))
        out = ev.evaluate_dynamics(model, pert, t, x_true, feedback(t, x))
        out[:-model.m] = x[model.m:]
        out[-model.m:] -= track.y_d_n(t)
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
    # the runner's right-hand side is A e + D(t) K(e) spelled out in row
    # form, to the last bit, on a sample grid and on the stored steps
    pert = ev.make_perturbation("example1_bounded")
    a = np.array(A_H)

    def rhs(t, e):
        return e @ a.T + pert.k(e) @ np.asarray(pert.d(t), dtype=float).T
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
    model = ev.SystemModel(1, 2, lambda x, u: np.array([x[0] + u[0]]),
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


def test_tracking_rejects_inconsistent_reference():
    bad = ev.TrackingSpec(lambda t: np.array([[np.sin(t), np.sin(t)]]),
                          lambda t: np.array([-np.sin(t)]), m=1, n=2)
    model = ev.make_model("chain", m=1, n=2)
    with pytest.raises(ValueError, match="derivative"):
        ev.simulate_tracking(model, _implicit(model, [[-1.0]]), bad, None,
                             np.array([0.3, 1.0]), 0.0, 5.0, tol=1e-8)


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
