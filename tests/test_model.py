import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evuas as ev
from evuas.diminishing import quartic_chirp
from evuas.model import ORIGIN_TOL
from evuas.simulate import _stage_parts


def _open_loop(model, pert, x0, t_end=1.0):
    # the loop closed by a zero linear gain: x' = shift(x) + (0, F(x, 0) + W)
    ctrl = ev.LinearController(np.zeros((model.m, model.state_dim)))
    return ev.simulate_closed_loop(model, ctrl, pert, x0, 0.0, t_end)


def test_shift_structure_simple():
    # x'' = 0 from (3, 5): the position is 3 + 5 t, the velocity stays 5
    traj = _open_loop(ev.make_model("chain", m=1, n=2),
                      ev.PerturbationSpec.zero(1), np.array([3.0, 5.0]))
    assert np.allclose(traj.states[:, 0], 3.0 + 5.0 * traj.times,
                       rtol=0.0, atol=1e-13)
    assert np.all(traj.states[:, 1] == 5.0)


def test_equilibrium_is_fixed_point():
    for name in ("chain", "cubic", "tanh"):
        model = ev.make_model(name)
        assert np.all(model.eval_f(np.zeros(model.state_dim),
                                   np.zeros(model.m)) == 0.0)
        assert model.check_origin_equilibrium() <= ORIGIN_TOL
        traj = _open_loop(model, ev.PerturbationSpec.zero(model.m),
                          np.zeros(model.state_dim))
        assert np.all(traj.states == 0.0)


def test_time_perturbation_enters_last_block():
    # x'' = W = 1 from rest: the velocity is t and the position t^2 / 2
    traj = _open_loop(ev.make_model("chain", m=1, n=2),
                      ev.make_perturbation("const1"), np.zeros(2))
    t = traj.times
    assert np.allclose(traj.states[:, 1], t, rtol=0.0, atol=1e-13)
    assert np.allclose(traj.states[:, 0], 0.5 * t ** 2, rtol=0.0, atol=1e-13)


def test_zero_kind_matches_zero_factored_bitwise(rng):
    model = ev.make_model("cubic")
    zero = ev.PerturbationSpec.zero(1)
    dzero = ev.PerturbationSpec.factored(lambda t: np.zeros((1, 1, t.size)),
                                         lambda x: np.ones(1), 1,
                                         state_dim=2)
    ctrl = ev.LinearController(np.array([[-1.0, -2.0]]))
    for x0 in (rng.standard_normal(2), rng.standard_normal((5, 2))):
        a = ev.simulate_closed_loop(model, ctrl, zero, x0, 0.3, 2.0)
        b = ev.simulate_closed_loop(model, ctrl, dzero, x0, 0.3, 2.0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)


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

    lin = ev.SystemModel(2, 2, lambda x, u: np.column_stack(
        [u[:, 0] + 2 * u[:, 1], 3 * u[:, 1]]))
    assert np.allclose(ev.jacobian_F_U(lin, np.zeros(4), np.zeros(2)),
                       [[1.0, 2.0], [0.0, 3.0]], atol=1e-7)


def _smooth():
    # F depends on X and U, with both Jacobians supplied
    def f(x, u):
        return np.column_stack(
            [np.sin(u[:, 0]) + x[:, 0] * u[:, 1] + x[:, 2] ** 2,
             np.exp(0.3 * u[:, 1]) - 1.0 + np.cos(x[:, 1]) - 1.0])

    def jac_u(x, u):
        out = np.zeros((len(u), 2, 2))
        out[:, 0, 0] = np.cos(u[:, 0])
        out[:, 0, 1] = x[:, 0]
        out[:, 1, 1] = 0.3 * np.exp(0.3 * u[:, 1])
        return out

    def jac_x(x, u):
        out = np.zeros((len(u), 2, 4))
        out[:, 0, 0] = u[:, 1]
        out[:, 0, 2] = 2.0 * x[:, 2]
        out[:, 1, 1] = -np.sin(x[:, 1])
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
        model.eval_f(np.zeros(3), np.zeros(1))
    with pytest.raises(ev.ShapeError, match="input"):
        model.eval_f(np.zeros(2), np.zeros(2))
    with pytest.raises(ev.ShapeError, match="x0: expected shape"):
        _open_loop(model, None, np.zeros(3))
    # a stack of states takes as many inputs, one state one input
    with pytest.raises(ev.ShapeError, match=r"^state \(3, 2\) and input "
                       r"\(2, 1\)"):
        model.eval_f(np.zeros((3, 2)), np.zeros((2, 1)))
    with pytest.raises(ev.ShapeError, match=r"^state \(1, 2\) and input "
                       r"\(1,\)"):
        ev.jacobian_F_U(model, np.zeros((1, 2)), np.zeros(1))


def test_non_finite_evaluation_flags_component():
    model = ev.SystemModel(2, 1, lambda x, u: np.column_stack(
        [u[:, 0], np.full(len(u), np.inf)]))
    with pytest.raises(ev.EvaluationError) as exc:
        model.eval_f(np.zeros(2), np.zeros(2))
    assert exc.value.component == 1
    assert exc.value.where == "F"


def test_non_finite_f_in_a_batch_names_its_row():
    model = ev.SystemModel(2, 1, lambda x, u: np.column_stack(
        [u[:, 0], np.where(x[:, 0] > 0, np.inf, u[:, 1])]))
    xs = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ev.EvaluationError, match="in row 1 at component 1") \
            as exc:
        model.eval_f(xs, np.zeros((3, 2)))
    assert (exc.value.row, exc.value.component, exc.value.where) == \
        (1, 1, "F")
    with pytest.raises(ev.EvaluationError) as exc:
        model.eval_f(xs[1], np.zeros(2))
    assert exc.value.row is None and exc.value.component == 1


@pytest.mark.parametrize("bad_x, bad_u, message, where, row", [
    ((2, 1), None, "state in row 2 at component 1", "state", 2),
    (None, (1, 0), "input in row 1 at component 0", "input", 1),
    ((2, 1), (1, 0), "state in row 2 at component 1", "state", 2),
], ids=["state", "input", "state_first"])
def test_a_non_finite_argument_is_named_before_f(bad_x, bad_u, message,
                                                 where, row):
    # F = x + u passes a non-finite state or input on; the error names
    # that argument, the state first, instead of blaming F
    model = ev.SystemModel(2, 1, lambda x, u: x + u)
    xs, us = np.zeros((3, 2)), np.zeros((3, 2))
    if bad_x:
        xs[bad_x] = np.inf
    if bad_u:
        us[bad_u] = np.nan
    with pytest.raises(ev.EvaluationError,
                       match=f"^F was passed a non-finite {message}$") as exc:
        model.eval_f(xs, us)
    assert (exc.value.where, exc.value.row) == (where, row)
    with pytest.raises(ev.EvaluationError, match="^F was passed a non-finite "
                       f"{where} at component {message[-1]}$") as exc:
        model.eval_f(xs[row], us[row])
    assert exc.value.row is None


def test_a_non_finite_input_is_named_by_the_jacobian():
    model = ev.make_model("cubic")
    with pytest.raises(ev.EvaluationError, match="^jac_u was passed a "
                       "non-finite input at component 0$"):
        ev.jacobian_F_U(model, np.zeros(2), np.array([np.inf]))
    # a non-finite argument that F does not pass on is not checked
    assert np.array_equal(model.eval_f(np.array([np.inf, 0.0]), [1.0]),
                          [2.0])


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


def test_batched_f_shapes():
    # for m = 1 an (N,) F is the (N, 1) column
    scalar = ev.SystemModel(1, 2, lambda x, u: u[:, 0] ** 3)
    us = np.array([[1.0], [-2.0]])
    assert np.array_equal(scalar.eval_f(np.zeros((2, 2)), us), us ** 3)
    model = ev.make_model("cubic")
    with pytest.raises(ev.ShapeError, match="state"):
        model.eval_f(np.zeros((3, 2)), us)
    with pytest.raises(ev.ShapeError, match="input"):
        model.eval_f(np.zeros((2, 2)), np.zeros((2, 2)))
    ragged = ev.SystemModel(
        1, 2, lambda x, u: [np.zeros(1 + (row[0] > 0)) for row in x])
    with pytest.raises(ValueError):
        ragged.eval_f(np.eye(2), np.zeros((2, 1)))
    wide = ev.SystemModel(1, 2, lambda x, u: np.zeros((len(u), 2)),
                          jac_u=lambda x, u: np.zeros((len(u), 1, 2)))
    with pytest.raises(ev.ShapeError, match="F: expected output shape"):
        wide.eval_f(np.zeros((2, 2)), us)
    with pytest.raises(ev.ShapeError, match="jac_u"):
        ev.jacobian_F_U(wide, np.zeros((2, 2)), us)


def test_non_finite_jacobian_in_a_batch_names_its_row():
    model = ev.SystemModel(
        1, 2, lambda x, u: u.copy(),
        jac_u=lambda x, u: np.where(x[:, 0] > 0, np.nan, 1.0)[:, None, None])
    xs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ev.EvaluationError) as exc:
        ev.jacobian_F_U(model, xs, np.zeros((3, 1)))
    assert (exc.value.row, exc.value.component, exc.value.where) == \
        (2, 0, "jac_u")


@pytest.mark.parametrize("rows", [1, 7, 4680])
@pytest.mark.parametrize("name", ["chain", "cubic", "tanh"])
def test_catalog_rows_are_one_state_values(name, rows):
    # the catalog maps are array expressions; a row of a batch must still
    # be its one-state value bit for bit, at any batch size
    model = _model(name)
    rng = np.random.default_rng(rows)
    scale = 1e3 if name == "tanh" else 3.0
    xs = rng.uniform(-3.0, 3.0, (rows, model.state_dim))
    us = rng.uniform(-scale, scale, (rows, model.m))
    for evaluate in (model.eval_f,
                     lambda x, u: ev.jacobian_F_U(model, x, u),
                     lambda x, u: ev.jacobian_F_X(model, x, u)):
        batch = evaluate(xs, us)
        for i in range(rows):
            assert np.array_equal(batch[i], evaluate(xs[i], us[i]))


def test_cubic_f_is_u_plus_u_cubed_within_4_ulp():
    # F is evaluated as u + u * u * u, not through np.power
    grid = np.concatenate([np.linspace(-50.0, 50.0, 20001),
                           np.geomspace(1e-100, 1e100, 2001)])
    u = np.concatenate([grid, -grid])[:, None]
    got = ev.make_model("cubic").eval_f(np.zeros((len(u), 2)), u)
    want = u + np.power(u, 3)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def _counted(fn, calls, key):
    def wrapped(x, u):
        calls[key].append(len(x))
        return fn(x, u)
    return wrapped


def test_model_maps_are_called_once_per_batch():
    cubic = ev.make_model("cubic")
    calls = {"f": [], "jac_u": [], "jac_x": []}
    model = ev.SystemModel(
        1, 2, _counted(cubic.f, calls, "f"),
        jac_u=_counted(cubic.jac_u, calls, "jac_u"),
        jac_x=_counted(cubic.jac_x, calls, "jac_x"))
    xs, us = np.zeros((4680, 2)), np.linspace(-2.0, 2.0, 4680)[:, None]
    model.eval_f(xs, us)
    model.eval_f(xs[0], us[0])
    ev.jacobian_F_U(model, xs, us)
    ev.jacobian_F_X(model, xs, us)
    assert calls == {"f": [4680, 1], "jac_u": [4680], "jac_x": [4680]}
    # central differences: two calls of f per input component
    calls["f"].clear()
    ev.jacobian_F_U(ev.SystemModel(1, 2, model.f), xs, us)
    assert calls["f"] == [4680, 4680]


def test_model_rejects_non_integral_sizes():
    # 1.5 used to become m = 1 without a word
    f = ev.make_model("chain").f
    for m, n, name in ((1.5, 2, "m"), (1, 2.5, "n"), (2.0, 2, "m"),
                       (1, "2", "n")):
        with pytest.raises(ValueError, match=f"^{name}: expected an integer"):
            ev.SystemModel(m, n, f)
    model = ev.SystemModel(np.int64(2), 3, f)
    assert (model.m, model.n) == (2, 3) and type(model.m) is int


def test_perturbation_rejects_bad_dimensions():
    # a float is not truncated to a dimension, and 0 is none
    for dim in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="^dim: expected an integer"):
            ev.PerturbationSpec("zero", dim)
    for dim in (0, -1):
        with pytest.raises(ValueError, match="^dim must be >= 1"):
            ev.PerturbationSpec.from_signal(lambda t: np.zeros(0), dim)
    d, k = (lambda t: np.eye(2)), (lambda x: x[:2])
    for state_dim, match in ((2.5, "expected an integer"), (0, ">= 1")):
        with pytest.raises(ValueError, match=f"^state_dim.*{match}"):
            ev.PerturbationSpec.factored(d, k, 2, state_dim=state_dim)
    pert = ev.PerturbationSpec.factored(d, k, np.int64(2),
                                        state_dim=np.int64(4))
    assert (pert.dim, pert.state_dim) == (2, 4)
    assert type(pert.dim) is int and type(pert.state_dim) is int
    # a dimension chosen from the catalog is checked the same way
    for name in ("zero", "const_e1"):
        with pytest.raises(ValueError, match="^dim must be >= 1"):
            ev.make_perturbation(name, dim=0)
        with pytest.raises(ValueError, match="^dim: expected an integer"):
            ev.make_perturbation(name, dim=2.5)
    with pytest.raises(ValueError, match="^dim: expected an integer"):
        ev.make_perturbation("cos_exp", dim=1.0)
    assert ev.make_perturbation("zero").dim == 1
    assert ev.make_perturbation("const_e1").dim == 2
    assert ev.make_perturbation("const_e1", dim=3).dim == 3


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
    for make, kind in ((ev.make_model, "model"),
                       (ev.make_perturbation, "perturbation"),
                       (ev.make_reference, "reference")):
        with pytest.raises(KeyError, match=rf"unknown {kind} 'nope'; "
                           r"catalog: \['"):
            make("nope")


@pytest.mark.parametrize("name", ["example1_unbounded", "example1_bounded",
                                  "cos_exp"])
def test_perturbation_rejects_a_dim_it_does_not_have(name):
    dim = ev.make_perturbation(name).dim
    assert ev.make_perturbation(name, dim=dim).dim == dim
    with pytest.raises(ValueError, match="has dimension"):
        ev.make_perturbation(name, dim=3)


def _time_rows(time_part, ts):
    """The time rows of _stage_parts at the 1-d array ts, (T, 1 + p, width),
    as integrate writes them into the M(t) of a step: the rows constant in
    t once, then ``fill`` over them, in a block strided as integrate's."""
    rows, fill = time_part
    width = rows.shape[1]
    mats = np.full((ts.size,) + (width + rows.shape[0],) * 2, np.nan)
    block = mats[:, width:, :width]
    block[...] = rows
    if fill is not None:
        fill(ts, block)
    return block


def _random_factored(dim, seed):
    # a dense D, so a batched product summing in another order would show
    d = np.random.default_rng(seed).standard_normal((dim, dim))
    return ev.PerturbationSpec.factored(
        lambda t: np.multiply.outer(d, np.cos(t)),
        lambda x: np.sin(x) + x ** 3, dim)


@pytest.mark.parametrize("name", ["zero", "example1_unbounded",
                                  "example1_bounded", "random3"])
def test_batched_evaluate_rows_are_one_state_values(name, rng):
    # each entry of the (time, state) grid is W at that one time and state
    pert = (_random_factored(3, 0) if name == "random3"
            else ev.make_perturbation(name, dim=2))
    xs = rng.uniform(-2.0, 2.0, (25, pert.state_dim))
    ts = rng.uniform(0.0, 20.0, 10)
    grid = pert.evaluate(ts, xs)
    assert grid.shape == (10, 25, pert.dim)
    if pert.kind == "zero":
        assert np.array_equal(grid, np.zeros(grid.shape))
        return
    # W from the time rows of an integrated run, R(t): w(t) in row 0, or
    # K(x) against D(t)^T in rows 1 to dim, one time and state at a time
    time_part, state = _stage_parts(pert, pert.dim, ts[0], xs)
    rows = _time_rows(time_part, ts)
    for i, t in enumerate(ts.tolist()):
        for j, x in enumerate(xs):
            if state is None:
                assert np.array_equal(grid[i, j], rows[i, 0])
                continue
            k = np.empty(pert.dim)
            state(t, x, k)
            assert np.array_equal(k, pert.k(x))
            assert np.array_equal(grid[i, j], k.dot(rows[i, 1:]))


@pytest.mark.parametrize("name", [name for name in ev.PERTURBATION_CATALOG
                                  if name != "zero"])
def test_time_rows_of_a_step_are_evaluate_bit_for_bit(name):
    # an integrated run and classify read w or D through one path: the time
    # rows of a step, at its five stage times, hold W of evaluate at those
    # times (w(t) in row 0), or D(t)^T, which is W at the unit states under
    # an identity K (rows 1 to dim, under a zero row 0)
    pert = ev.make_perturbation(name)
    t, h = 1.3, 0.01
    ts = t + h * np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
    time_part, state = _stage_parts(pert, pert.dim, t,
                                    np.zeros(pert.state_dim))
    rows = _time_rows(time_part, ts)
    if pert.kind == "time":
        assert state is None and rows.shape == (5, 1, pert.dim)
        want = pert.evaluate(ts, np.zeros(pert.state_dim))[:, 0]
        assert rows[:, 0].tobytes() == want.tobytes()
    else:
        unit = ev.PerturbationSpec.factored(pert.d, lambda x: x, pert.dim)
        assert rows.shape == (5, 1 + pert.dim, pert.dim)
        assert not rows[:, 0].any()
        want = unit.evaluate(ts, np.eye(pert.dim))
        assert rows[:, 1:].tobytes() == want.tobytes()


def _allocated_rows(pert, width, ts, term):
    # the time rows as one new array per call, from w and D themselves:
    # w(t) in row 0, the identity over term(x), D(t)^T over K
    p = width * ((term is not None) + (pert.kind == "factored"))
    rows = np.zeros((ts.size, 1 + p, width))
    if pert.kind == "time":
        rows[:, 0] = np.reshape(pert.w(ts), (width, ts.size)).T
    if term is not None:
        rows[:, 1:1 + width] = np.eye(width)
    if pert.kind == "factored":
        rows[:, 1 + p - width:] = pert.d(ts).transpose(2, 1, 0)
    return rows


@pytest.mark.parametrize("ts", [[1.3], [1.31], 1.3 + 0.01 * np.array(
    [1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])], ids=["t0", "probe", "step"])
@pytest.mark.parametrize("kind", ["zero", "time", "factored", "term",
                                  "term_factored", "tracking"])
def test_time_rows_written_in_place_are_the_allocated_rows(kind, ts):
    # the constant rows go into M(t) once per run and fill writes the others
    # at the stage times: together the rows of one new array, bit for bit,
    # at t0, at the initial-step probe's one time and at a step's five
    name = ("example1_bounded" if "factored" in kind or kind == "tracking"
            else "zero" if kind == "zero" else "vec_cos_sin_exp")
    pert = ev.make_perturbation(name, dim=2) if kind == "zero" \
        else ev.make_perturbation(name)
    term = (lambda x: -x) if kind.startswith("term") else None
    track = ev.make_reference("zero", m=1, n=2) if kind == "tracking" \
        else None
    time_part, state = _stage_parts(pert, 2, 1.3, np.full(2, 0.2), track,
                                    term)
    assert (time_part[1] is None) == (kind == "zero")
    assert (state is None) == (kind in ("zero", "time"))
    ts = np.asarray(ts)
    rows = _time_rows(time_part, ts)
    assert rows.tobytes() == _allocated_rows(pert, 2, ts, term).tobytes()


@pytest.mark.parametrize("ts", [0.5, [[0.1, 0.2]], [], [0.1, math.nan]],
                         ids=["scalar", "2d", "empty", "nan"])
@pytest.mark.parametrize("name", ["zero", "cos_exp", "example1_bounded"])
def test_evaluate_checks_its_times(name, ts):
    # every kind rejects the same bad times with one message, before w, D
    # or K sees them
    pert = ev.make_perturbation(name)
    xs = np.zeros((2, pert.state_dim))
    with pytest.raises(ValueError, match="^ts must be a non-empty 1-d "
                       "sequence of finite times$"):
        pert.evaluate(ts, xs)


def _constant_d(mat):
    return lambda t: np.multiply.outer(mat, np.ones(np.shape(t)))


def test_bad_row_of_a_batch_raises():
    def k(x):
        if x[0] > 1.0:
            return np.array([np.inf, 0.0])
        if x[0] < -1.0:
            return np.zeros(3)
        return x
    pert = ev.PerturbationSpec.factored(
        _constant_d(np.array([[1.0, 0.0], [0.5, 1.0]])), k, 2)
    ts = np.array([0.0, 1.0])
    good = np.zeros((4, 2))
    assert pert.evaluate(ts, good).shape == (2, 4, 2)
    with pytest.raises(ev.EvaluationError) as exc:
        pert.evaluate(ts, np.vstack([good, [[2.0, 0.0]]]))
    assert exc.value.component == 0 and exc.value.where == "W"
    assert exc.value.row == 4
    with pytest.raises(ev.ShapeError, match="K"):
        pert.evaluate(ts, np.vstack([good, [[-2.0, 0.0]]]))
    for d in (_constant_d(np.eye(3)), lambda t: np.eye(2)):
        with pytest.raises(ev.ShapeError, match="D"):
            ev.PerturbationSpec.factored(d, lambda x: x, 2).evaluate(ts, good)
    with pytest.raises(ev.ShapeError, match=r"w\(t\)"):
        ev.PerturbationSpec.from_signal(
            lambda t: np.ones((3, np.size(t))), 2).evaluate(ts, good)


@pytest.mark.parametrize("kind", ["time", "factored"])
def test_a_non_finite_w_names_its_time_and_row(kind):
    # W is non-finite from t = 2 on: on every row for the time signal, so
    # row 0 is named, and on the state row 3 alone for the factored W
    ts = np.array([0.5, 1.0, 2.0, 3.0])
    xs = np.ones((5, 2))
    if kind == "time":
        pert = ev.PerturbationSpec.from_signal(
            lambda t: np.stack([np.ones(np.shape(t)),
                                np.where(t >= 2.0, np.inf, 1.0)]), 2)
        row, idx = 0, 1
    else:
        # D(t) grows to 1e300 at t = 2, where the large row 3 overflows
        pert = ev.PerturbationSpec.factored(
            lambda t: np.multiply.outer(
                np.eye(2), np.where(t >= 2.0, 1e300, np.exp(t))),
            lambda x: x, 2)
        xs[3, 1] = 1e10
        row, idx = 3, 1
    with pytest.raises(ev.EvaluationError, match=r"at t=2\.0 ") as exc:
        pert.evaluate(ts, xs)
    assert (exc.value.row, exc.value.component) == (row, idx)
    assert exc.value.where == "W"


def test_a_scalar_k_is_rejected_at_dim_1():
    # K(x) is exactly (dim,): a scalar passed evaluate for one component,
    # while every run died on it in numpy
    pert = ev.PerturbationSpec.factored(_constant_d(np.eye(1)),
                                        lambda x: float(x[0]), 1, name="k0")
    with pytest.raises(ev.ShapeError, match=r"^K\(x\): expected shape "
                       r"\(1,\), got \(\)$"):
        pert.evaluate([0.0, 1.0], np.ones((2, 1)))
    with pytest.raises(ev.ShapeError, match="^perturbation 'k0' at t0=0.0: "
                       "K"):
        ev.simulate_error_dynamics(ev.default_hurwitz(1), pert, [1.0], 0.0,
                                   1.0)


@pytest.mark.parametrize("case", ["time_major", "scalar_w", "flat_d"])
def test_columns_check_w_and_d_as_evaluate_does(case):
    # the time-major w was reshaped into scrambled columns, whose quadrature
    # ran out of its panel budget (3.4 s) to an "inconclusive" profile; the
    # scalar w died in np.reshape, and the D without a time axis was named
    # a "time signal"
    ts = np.linspace(0.0, 1.0, 5)
    if case == "time_major":
        pert = ev.PerturbationSpec.from_signal(
            lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1), 2)
        match = r"^w\(t\): expected shape \(N,\) or \(dim, N\)"
    elif case == "scalar_w":
        pert = ev.PerturbationSpec.from_signal(np.cos, 2)
        match = r"^w\(t\): expected shape \(2, 5\), got \(1, 5\)$"
    else:
        pert = ev.PerturbationSpec.factored(lambda t: np.eye(2),
                                            lambda x: x, 2)
        match = r"^D\(t\): expected shape \(2, 2, 5\), got \(2, 2\)$"
    for col in pert.columns():
        with pytest.raises(ev.ShapeError, match=match):
            col(ts)
    with pytest.raises(ev.ShapeError, match=match):
        pert.evaluate(ts, np.zeros((1, 2)))
    with pytest.raises(ev.ShapeError):
        ev.diminishing_profile(pert.columns()[0], [0.0, 1.0])
    if case == "scalar_w":
        # a column at one time reads w on the array [0.5]
        with pytest.raises(ev.ShapeError, match=r"^w\(t\): expected shape "
                           r"\(2, 1\), got \(1, 1\)$"):
            pert.columns()[0](0.5)


@pytest.mark.parametrize("name", list(ev.PERTURBATION_CATALOG))
def test_columns_are_slices_of_w_or_d(name, rng):
    # column j of D(t), or of diag(w(t)), at one time and on an array
    pert = ev.make_perturbation(name)
    ts = rng.uniform(0.0, 8.0, 7)
    for t in (float(ts[0]), ts):
        want = np.zeros((pert.dim, pert.dim) + np.shape(t))
        if pert.kind == "factored":
            want = np.asarray(pert.d(t), dtype=float)
        elif pert.kind == "time":
            # a scalar signal's () or (N,) is its one component
            w = np.reshape(pert.w(t), (pert.dim,) + np.shape(t))
            for j in range(pert.dim):
                want[j, j] = w[j]
        for j, col in enumerate(pert.columns()):
            assert np.array_equal(col(t), want[:, j])


def test_evaluate_checks_its_states_by_the_stack_rule():
    # a scalar state used to raise a bare TypeError from len(); a flat
    # state is a one-row batch
    pert = ev.make_perturbation("example1_bounded")
    with pytest.raises(ev.ShapeError, match=r"^state: expected shape"):
        pert.evaluate([0.0, 1.0], 0.5)
    x = np.array([0.3, -0.4])
    assert np.array_equal(pert.evaluate([0.0, 1.0], x),
                          pert.evaluate([0.0, 1.0], x[None]))


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
    pert = ev.PerturbationSpec.factored(_constant_d(np.eye(2)),
                                        lambda x: x[:2], 2, state_dim=4)
    assert pert.state_dim == 4
    assert pert.evaluate([0.0], np.ones((1, 4))).shape == (1, 1, 2)
    assert ev.make_perturbation("cos_exp").state_dim == 1
    for kind, w in (("zero", None), ("time", lambda t: np.zeros(2))):
        with pytest.raises(ValueError, match="state_dim"):
            ev.PerturbationSpec(kind, 2, w=w, state_dim=4)
