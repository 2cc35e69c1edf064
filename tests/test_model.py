import numpy as np
import pytest

import evuas as ev
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


def test_finite_difference_matches_analytic(rng):
    # smooth model with both jacobians supplied: FD agrees to ~1e-6 relative
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

    analytic = ev.SystemModel(2, 2, f, jac_u=jac_u, jac_x=jac_x)
    numeric = ev.SystemModel(2, 2, f)
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
