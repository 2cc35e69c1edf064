import numpy as np
import pytest

import evuas as ev

A_H = [[-1.0, 2.0], [0.0, -1.5]]


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

    The input is re-solved at each stage state, warm-started from the
    previous solve, and the inputs are solved afterwards at the samples.
    """
    warm = {"u": None}

    def feedback(t, x, u0):
        if track is None:
            return ctrl.solve(x, u0=u0)
        x_true = x + ev.flatten_state(track.value(t))
        return ctrl.solve_shifted(x, x_true, -track.y_d_n(t), u0=u0)

    def rhs(t, x):
        warm["u"] = feedback(t, x, warm["u"])
        if track is None:
            return ev.evaluate_dynamics(model, pert, t, x, warm["u"])
        # deviation dynamics: the reference's nth derivative comes off
        x_true = x + ev.flatten_state(track.value(t))
        out = ev.evaluate_dynamics(model, pert, t, x_true, warm["u"])
        out[:-model.m] = x[model.m:]
        out[-model.m:] -= track.y_d_n(t)
        return out

    x0 = np.asarray(x0, dtype=float)
    if track is not None:
        x0 = x0 - ev.flatten_state(track.value(ts[0]))
    traj = ev.integrate(rhs, ts[0], x0, ts[-1], tol=1e-8,
                        freq_hint=pert.freq_hint, sample_times=ts)
    u = None
    inputs = []
    for t, x in zip(traj.times, traj.states):
        u = feedback(t, x, u)
        inputs.append(u)
    return traj.states, np.array(inputs)


@pytest.mark.parametrize("name", ["chain", "cubic", "tanh"])
def test_closed_form_matches_newton_in_rhs(name):
    model = ev.make_model(name)
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    pert = ev.make_perturbation("cos_exp")
    x0 = np.array([0.3, -0.1])
    ts = np.linspace(0.0, 6.0, 601)
    states, inputs = _newton_in_rhs(model, ctrl, pert, x0, ts)
    traj = ev.simulate_closed_loop(model, ctrl, pert, x0, 0.0, 6.0,
                                   tol=1e-8, sample_times=ts)
    assert np.max(np.abs(traj.states - states)) < 1e-10
    assert np.max(np.abs(traj.inputs - inputs)) < 1e-10


def test_closed_form_tracking_matches_newton_in_rhs():
    model = ev.make_model("chain", m=1, n=2)
    design, hurwitz = ev.build_gamma([[-1.0]], 2), ev.default_hurwitz(1)
    ctrl = ev.ImplicitController(model, design, hurwitz)
    track = ev.make_reference("sin_cos")
    pert = ev.make_perturbation("cos_exp")
    x0 = np.array([0.3, 1.0])
    ts = np.linspace(0.0, 6.0, 601)
    states, inputs = _newton_in_rhs(model, ctrl, pert, x0, ts, track=track)
    traj = ev.simulate_tracking(model, design, hurwitz, track, pert, x0, 0.0,
                                6.0, tol=1e-8, sample_times=ts)
    assert np.max(np.abs(traj.states - states)) < 1e-10
    assert np.max(np.abs(traj.inputs - inputs)) < 1e-10


def test_one_feedback_solve_per_stored_point(monkeypatch):
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
    assert traj.diagnostics["n_rhs"] > traj.times.size
    assert calls == {"solve": traj.times.size, "solve_shifted": 0}
    calls["solve"] = 0
    traj = ev.simulate_tracking(model, design, hurwitz,
                                ev.make_reference("zero", m=1, n=2), pert,
                                np.array([0.3, 0.0]), 0.0, 2.0, tol=1e-6)
    assert calls == {"solve": 0, "solve_shifted": traj.times.size}


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


@pytest.mark.parametrize("case", ["designed", "linear_gain"])
def test_closed_loop_one_row_batch_is_the_single_run(case):
    if case == "designed":
        model = ev.make_model("cubic")
        ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                      ev.default_hurwitz(1))
    else:
        model = ev.make_model("chain", m=1, n=2)
        ctrl = ev.linearize_and_place(model, [-1.0, -2.0])
    pert = ev.make_perturbation("cos_exp")
    x0 = np.array([0.3, -0.1])
    alone = ev.simulate_closed_loop(model, ctrl, pert, x0, 0.0, 3.0,
                                    tol=1e-8)
    batch = ev.simulate_closed_loop(model, ctrl, pert, x0[None], 0.0, 3.0,
                                    tol=1e-8)
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
        model, ev.build_gamma([[-1.0]], 2), ev.build_hurwitz([[-1.0]]),
        ev.make_reference("zero", m=1, n=2), None, x0, 0.0, 3.0, tol=1e-9,
        sample_times=ts)
    assert np.array_equal(loop.states, track.states)
    assert np.array_equal(loop.inputs, track.inputs)


def test_tracking_sine_reference():
    model = ev.make_model("chain", m=1, n=2)
    traj = ev.simulate_tracking(
        model, ev.build_gamma([[-1.0]], 2), ev.default_hurwitz(1),
        ev.make_reference("sin_cos"), None, np.array([0.3, 1.0]), 0.0, 20.0,
        tol=1e-9)
    assert np.allclose(traj.states[0], [0.3, 0.0], atol=1e-12)
    assert traj.norms()[-1] < 1e-6


def test_tracking_with_diminishing_perturbation_decays():
    model = ev.make_model("chain", m=1, n=2)
    pert = ev.make_perturbation("cos_exp")
    traj = ev.simulate_tracking(
        model, ev.build_gamma([[-1.0]], 2), ev.default_hurwitz(1),
        ev.make_reference("sin_cos"), pert, np.array([0.3, 1.0]), 0.0, 8.0,
        tol=1e-8)
    assert traj.norms()[-1] < 5e-3             # pinned from a reference run


def test_tracking_rejects_inadmissible_reference():
    model = ev.SystemModel(1, 2, lambda x, u: np.array([x[0] + u[0]]),
                           name="state_coupled")
    with pytest.raises(ValueError, match="inadmissible"):
        ev.simulate_tracking(
            model, ev.build_gamma([[-1.0]], 2), ev.default_hurwitz(1),
            ev.make_reference("sin_cos"), None, np.array([0.3, 1.0]),
            0.0, 5.0, tol=1e-8)


def test_tracking_rejects_inconsistent_reference():
    bad = ev.TrackingSpec(lambda t: np.array([[np.sin(t), np.sin(t)]]),
                          lambda t: np.array([-np.sin(t)]), m=1, n=2)
    model = ev.make_model("chain", m=1, n=2)
    with pytest.raises(ValueError, match="derivative"):
        ev.simulate_tracking(model, ev.build_gamma([[-1.0]], 2),
                             ev.default_hurwitz(1), bad, None,
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
