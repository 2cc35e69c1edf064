import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evuas as ev
from evuas.diminishing import quartic_chirp
from evuas.model import ORIGIN_TOL


def test_shift_structure_simple():
    model = ev.make_model("chain", m=1, n=2)
    out = ev.evaluate_dynamics(model, ev.PerturbationSpec.zero(1), 0.0,
                               np.array([3.0, 5.0]), np.array([0.0]))
    assert np.array_equal(out, np.array([5.0, 0.0]))


def test_equilibrium_is_fixed_point():
    for name in ("chain", "cubic", "tanh"):
        model = ev.make_model(name)
        out = ev.evaluate_dynamics(model, ev.PerturbationSpec.zero(model.m),
                                   0.0, np.zeros(model.state_dim),
                                   np.zeros(model.m))
        assert np.all(out == 0.0)
        assert model.check_origin_equilibrium() <= ORIGIN_TOL


def test_time_perturbation_enters_last_block():
    model = ev.make_model("chain", m=1, n=2)
    pert = ev.make_perturbation("cos_exp")
    out = ev.evaluate_dynamics(model, pert, 0.0, np.zeros(2), np.zeros(1))
    assert out[0] == 0.0
    assert out[1] == pytest.approx(np.cos(1.0), abs=1e-15)


def test_shift_structure_random(rng):
    # entries 1..(n-1)m of the derivative equal entries m+1..nm of the state
    for m, n in ((1, 2), (2, 3), (3, 2)):
        model = ev.make_model("chain", m=m, n=n)
        for _ in range(20):
            x = rng.standard_normal(m * n)
            u = rng.standard_normal(m)
            out = ev.evaluate_dynamics(model, None, 0.0, x, u)
            assert np.array_equal(out[:(n - 1) * m], x[m:])


def test_zero_kind_matches_zero_factored_bitwise(rng):
    model = ev.make_model("cubic")
    zero = ev.PerturbationSpec.zero(1)
    dzero = ev.PerturbationSpec.factored(lambda t: np.zeros((1, 1)),
                                         lambda x: np.ones(1), 1)
    for _ in range(25):
        x = rng.standard_normal(2)
        u = rng.standard_normal(1)
        a = ev.evaluate_dynamics(model, zero, 0.3, x, u)
        b = ev.evaluate_dynamics(model, dzero, 0.3, x, u)
        assert np.array_equal(a, b)


def test_state_matrix_round_trip(rng):
    for m, n in ((1, 2), (2, 3), (4, 5)):
        flat = rng.standard_normal(m * n)
        assert np.array_equal(ev.flatten_state(ev.unflatten_state(flat, m, n)),
                              flat)
        # column i+1 of the matrix is derivative block i
        mat = ev.unflatten_state(flat, m, n)
        for i in range(n):
            assert np.array_equal(mat[:, i], flat[i * m:(i + 1) * m])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(1, 4))
def test_flatten_round_trip(data, m, n):
    entries = data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=m * n, max_size=m * n))
    mat = np.array(entries).reshape(m, n)
    flat = ev.flatten_state(mat)
    assert np.array_equal(ev.unflatten_state(flat, m, n), mat)
    assert np.array_equal(ev.flatten_state(ev.unflatten_state(flat, m, n)),
                          flat)
    assert np.array_equal(flat[:m], mat[:, 0])


def test_jacobian_u_examples():
    chain = ev.make_model("chain", m=1, n=2)
    assert np.allclose(ev.jacobian_F_U(chain, np.zeros(2), np.zeros(1)),
                       [[1.0]])
    cubic_fd = ev.SystemModel(1, 2, ev.make_model("cubic").f)
    jac = ev.jacobian_F_U(cubic_fd, np.zeros(2), np.array([1.0]))
    assert jac[0, 0] == pytest.approx(4.0, rel=1e-7)

    lin = ev.SystemModel(2, 2, lambda x, u: np.array([u[0] + 2 * u[1],
                                                      3 * u[1]]))
    assert np.allclose(ev.jacobian_F_U(lin, np.zeros(4), np.zeros(2)),
                       [[1.0, 2.0], [0.0, 3.0]], atol=1e-7)


def _smooth():
    # F depends on X and U, with both Jacobians supplied
    def f(x, u):
        return np.array([np.sin(u[0]) + x[0] * u[1] + x[2] ** 2,
                         np.exp(0.3 * u[1]) - 1.0 + np.cos(x[1]) - 1.0])

    def jac_u(x, u):
        return np.array([[np.cos(u[0]), x[0]],
                         [0.0, 0.3 * np.exp(0.3 * u[1])]])

    def jac_x(x, u):
        out = np.zeros((2, 4))
        out[0, 0] = u[1]
        out[0, 2] = 2.0 * x[2]
        out[1, 1] = -np.sin(x[1])
        return out

    return ev.SystemModel(2, 2, f, jac_u=jac_u, jac_x=jac_x, name="smooth")


def _fd_twin(model):
    return ev.SystemModel(model.m, model.n, model.f, name="fd")


def _model(name):
    if name == "smooth":
        return _smooth()
    return ev.make_model(name, m=2 if name == "chain" else 1, n=2)


def test_finite_difference_matches_analytic(rng):
    # FD agrees with the supplied Jacobians to ~1e-6 relative
    analytic = _smooth()
    numeric = _fd_twin(analytic)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, 4)
        u = rng.uniform(-1.0, 1.0, 2)
        ja = ev.jacobian_F_U(analytic, x, u)
        jn = ev.jacobian_F_U(numeric, x, u)
        assert np.max(np.abs(ja - jn)) / max(1.0, np.max(np.abs(ja))) < 1e-6
        ja = ev.jacobian_F_X(analytic, x, u)
        jn = ev.jacobian_F_X(numeric, x, u)
        assert np.max(np.abs(ja - jn)) / max(1.0, np.max(np.abs(ja))) < 1e-6


def test_dimension_mismatch_reports_shapes():
    model = ev.make_model("chain", m=1, n=2)
    with pytest.raises(ev.ShapeError, match="expected shape"):
        ev.evaluate_dynamics(model, None, 0.0, np.zeros(3), np.zeros(1))
    with pytest.raises(ev.ShapeError, match="input"):
        ev.evaluate_dynamics(model, None, 0.0, np.zeros(2), np.zeros(2))


def test_non_finite_evaluation_flags_component():
    model = ev.SystemModel(2, 1, lambda x, u: np.array([u[0], np.inf]))
    with pytest.raises(ev.EvaluationError) as exc:
        model.eval_f(np.zeros(2), np.zeros(2))
    assert exc.value.component == 1
    assert exc.value.where == "F"


def test_non_finite_f_in_a_batch_names_its_row():
    model = ev.SystemModel(
        2, 1, lambda x, u: np.array([u[0], np.inf if x[0] > 0 else u[1]]))
    xs = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ev.EvaluationError, match="in row 1 at component 1") \
            as exc:
        model.eval_f(xs, np.zeros((3, 2)))
    assert (exc.value.row, exc.value.component, exc.value.where) == \
        (1, 1, "F")
    with pytest.raises(ev.EvaluationError) as exc:
        model.eval_f(xs[1], np.zeros(2))
    assert exc.value.row is None and exc.value.component == 1


@pytest.mark.parametrize("name", ["cubic", "tanh", "chain", "smooth"])
def test_batched_f_and_jacobian_rows_are_one_state_values(name, rng):
    model = _model(name)
    m, dim = model.m, model.state_dim
    xs = rng.uniform(-3.0, 3.0, (6, dim))
    us = rng.uniform(-3.0, 3.0, (6, m))
    f = model.eval_f(xs, us)
    assert f.shape == (6, m)
    for mod in (model, _fd_twin(model)):       # analytic, then FD
        for jacobian, width in ((ev.jacobian_F_U, m), (ev.jacobian_F_X, dim)):
            jac = jacobian(mod, xs, us)
            assert jac.shape == (6, m, width)
            for i in range(6):
                assert np.array_equal(jac[i], jacobian(mod, xs[i], us[i]))
    for i in range(6):
        assert np.array_equal(f[i], model.eval_f(xs[i], us[i]))


@pytest.mark.parametrize("name", ["cubic", "chain", "smooth"])
def test_batched_dynamics_rows_are_one_state_values(name, rng):
    model = _model(name)
    m = model.m
    xs = rng.uniform(-3.0, 3.0, (6, model.state_dim))
    us = rng.uniform(-3.0, 3.0, (6, m))
    d = rng.standard_normal((m, m))
    for pert in (None, ev.PerturbationSpec.zero(m),
                 ev.PerturbationSpec.from_signal(
                     lambda t: np.cos(t) * np.arange(1.0, m + 1), m),
                 ev.PerturbationSpec.factored(
                     lambda t: np.cos(t) * d,
                     lambda x: np.sin(x[:m]) + x[-m:] ** 3, m,
                     state_dim=model.state_dim)):
        out = ev.evaluate_dynamics(model, pert, 0.7, xs, us)
        assert out.shape == xs.shape
        for i in range(6):
            assert np.array_equal(
                out[i], ev.evaluate_dynamics(model, pert, 0.7, xs[i], us[i]))


def test_batched_f_shapes():
    # a scalar F per row is the (N, 1) column, as a scalar F is (1,) alone
    scalar = ev.SystemModel(1, 2, lambda x, u: float(u[0]) ** 3)
    us = np.array([[1.0], [-2.0]])
    assert np.array_equal(scalar.eval_f(np.zeros((2, 2)), us), us ** 3)
    model = ev.make_model("cubic")
    with pytest.raises(ev.ShapeError, match="state"):
        model.eval_f(np.zeros((3, 2)), us)
    with pytest.raises(ev.ShapeError, match="input"):
        model.eval_f(np.zeros((2, 2)), np.zeros((2, 2)))
    ragged = ev.SystemModel(1, 2, lambda x, u: np.zeros(1 + (x[0] > 0)))
    with pytest.raises(ValueError):
        ragged.eval_f(np.eye(2), np.zeros((2, 1)))
    wide = ev.SystemModel(1, 2, lambda x, u: np.zeros(2),
                          jac_u=lambda x, u: np.zeros((1, 2)))
    with pytest.raises(ev.ShapeError, match="F: expected output shape"):
        wide.eval_f(np.zeros((2, 2)), us)
    with pytest.raises(ev.ShapeError, match="jac_u"):
        ev.jacobian_F_U(wide, np.zeros((2, 2)), us)


def test_non_finite_jacobian_in_a_batch_names_its_row():
    model = ev.SystemModel(
        1, 2, lambda x, u: u.copy(),
        jac_u=lambda x, u: np.array([[np.nan if x[0] > 0 else 1.0]]))
    xs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ev.EvaluationError) as exc:
        ev.jacobian_F_U(model, xs, np.zeros((3, 1)))
    assert (exc.value.row, exc.value.component, exc.value.where) == \
        (2, 0, "jac_u")


def test_model_is_reentrant_after_construction():
    # concurrent-style interleaved evaluations see identical results
    model = ev.make_model("cubic")
    x1, u1 = np.array([0.5, -0.2]), np.array([0.7])
    x2, u2 = np.array([-1.0, 2.0]), np.array([-0.3])
    first = (model.eval_f(x1, u1).copy(), model.eval_f(x2, u2).copy())
    for _ in range(5):
        assert np.array_equal(model.eval_f(x2, u2), first[1])
        assert np.array_equal(model.eval_f(x1, u1), first[0])


def test_catalog_names_resolve():
    for name in ("chain", "cubic", "tanh"):
        assert ev.make_model(name).name == name
    with pytest.raises(KeyError):
        ev.make_model("nope")


@pytest.mark.parametrize("name", ["example1_unbounded", "example1_bounded",
                                  "cos_exp"])
def test_perturbation_rejects_a_dim_it_does_not_have(name):
    dim = ev.make_perturbation(name).dim
    assert ev.make_perturbation(name, dim=dim).dim == dim
    with pytest.raises(ValueError, match="has dimension"):
        ev.make_perturbation(name, dim=3)


def _random_factored(dim, seed):
    # a dense D, so a batched product summing in another order would show
    d = np.random.default_rng(seed).standard_normal((dim, dim))
    return ev.PerturbationSpec.factored(
        lambda t: np.cos(t) * d, lambda x: np.sin(x) + x ** 3, dim)


@pytest.mark.parametrize("name", ["zero", "example1_unbounded",
                                  "example1_bounded", "random3"])
def test_batched_evaluate_rows_are_one_state_values(name, rng):
    pert = (_random_factored(3, 0) if name == "random3"
            else ev.make_perturbation(name, dim=2))
    xs = rng.uniform(-2.0, 2.0, (25, pert.state_dim))
    for t in rng.uniform(0.0, 20.0, 10):
        batch = pert.evaluate(t, xs)
        assert batch.shape == (25, pert.dim)
        raw = (None if pert.unchecked is None
               else np.broadcast_to(pert.unchecked(t, xs), batch.shape))
        for i, x in enumerate(xs):
            one = pert.evaluate(t, x)
            assert np.array_equal(batch[i], one)
            if raw is not None:
                assert np.array_equal(raw[i], one)
                assert np.array_equal(pert.unchecked(t, x), one)


def test_bad_row_of_a_batch_raises():
    def k(x):
        if x[0] > 1.0:
            return np.array([np.inf, 0.0])
        if x[0] < -1.0:
            return np.zeros(3)
        return x
    pert = ev.PerturbationSpec.factored(
        lambda t: np.array([[1.0, 0.0], [0.5, 1.0]]), k, 2)
    good = np.zeros((4, 2))
    assert pert.evaluate(0.0, good).shape == (4, 2)
    with pytest.raises(ev.EvaluationError) as exc:
        pert.evaluate(0.0, np.vstack([good, [[2.0, 0.0]]]))
    assert exc.value.component == 0 and exc.value.where == "W"
    assert exc.value.row == 4
    with pytest.raises(ev.ShapeError, match="K"):
        pert.evaluate(0.0, np.vstack([good, [[-2.0, 0.0]]]))
    wide = ev.PerturbationSpec.factored(lambda t: np.eye(3),
                                        lambda x: x, 2)
    with pytest.raises(ev.ShapeError, match="D"):
        wide.evaluate(0.0, good)
    with pytest.raises(ev.ShapeError, match="W"):
        ev.PerturbationSpec.from_signal(lambda t: np.ones(3), 2).evaluate(
            0.0, good)


def test_freq_hint_defaults_to_the_chirp_terms():
    terms = (quartic_chirp((1.0, 0.0)),)
    w = ev.make_perturbation("example1_unbounded").w
    derived = ev.PerturbationSpec.from_signal(w, 2, terms=terms)
    t = np.linspace(0.0, 5.0, 11).tolist()
    assert [derived.freq_hint(s) for s in t] == [4.0 * s ** 3 for s in t]
    given_hint = ev.PerturbationSpec.from_signal(w, 2, freq_hint=3.0,
                                                 terms=terms)
    assert given_hint.freq_hint == 3.0


def test_only_a_factored_disturbance_takes_a_state_dim():
    pert = ev.PerturbationSpec.factored(lambda t: np.eye(2),
                                        lambda x: x[:2], 2, state_dim=4)
    assert pert.state_dim == 4 and pert.evaluate(0.0, np.ones(4)).shape == (2,)
    assert ev.make_perturbation("cos_exp").state_dim == 1
    for kind, w in (("zero", None), ("time", lambda t: np.zeros(2))):
        with pytest.raises(ValueError, match="state_dim"):
            ev.PerturbationSpec(kind, 2, w=w, state_dim=4)
