import functools
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from oracles import newton_reference, place_reference

import evuas as ev
from evuas.synthesis import closed_loop_matrix


# --- error-polynomial designs

def test_build_gamma_first_order_column():
    d = ev.build_gamma([[-1.0]], 2)
    assert np.allclose(d.gamma, [[1.0]])
    assert d.gamma_star == 1.0
    assert d.mu_gamma == pytest.approx(1.0)
    assert d.kappa >= 1.0


def test_build_gamma_expands_product():
    d = ev.build_gamma([[-1.0, -2.0]], 3)
    assert np.allclose(d.gamma[:, 0], [2.0, 3.0])


def test_build_gamma_two_channels():
    d = ev.build_gamma([[-2.0], [-0.5]], 2)
    assert np.allclose(d.gamma, [[2.0, 0.5]])
    assert d.gamma_star == 2.0
    assert d.mu_gamma == pytest.approx(0.5)


def test_build_gamma_complex_pair():
    d = ev.build_gamma([[complex(-1.0, 2.0), complex(-1.0, -2.0)]], 3)
    # (z+1-2i)(z+1+2i) = z^2 + 2z + 5
    assert np.allclose(d.gamma[:, 0], [5.0, 2.0])


def test_build_gamma_rejections():
    with pytest.raises(ev.DesignError):
        ev.build_gamma([[1.0]], 2)                      # unstable pole
    with pytest.raises(ev.DesignError):
        ev.build_gamma([[complex(-1, 2), -1.0]], 3)     # missing conjugate
    with pytest.raises(ev.DesignError):
        ev.build_gamma([[-1.0]], 1)                     # order too low
    with pytest.raises(ev.DesignError):
        ev.build_gamma([[-1.0, -2.0]], 2)               # wrong pole count
    with pytest.raises(ev.DesignError):
        ev.build_gamma([[-1.0]], 0)                     # order too low
    # an order that is no integer raised a bare TypeError in np.zeros
    with pytest.raises(ValueError, match=r"^n: expected an integer, "
                       r"got 2\.5$") as exc:
        ev.build_gamma([[-1.0]], 2.5)
    assert not isinstance(exc.value, ev.DesignError)


def test_build_gamma_accepts_a_noisy_conjugate_partner():
    # the partner's imaginary part is off by 1e-10, inside the pairing
    # tolerance; the column expands the snapped pair, as placement does
    col = [complex(-1000.0, 1000.0), complex(-1000.0, -(1000.0 - 1e-10))]
    d = ev.build_gamma([col], 3)
    assert np.allclose(d.gamma[:, 0], [1999999.9999998, 2000.0],
                       rtol=1e-15, atol=0.0)
    ctrl = ev.linearize_and_place(ev.make_model("chain", m=1, n=2), col)
    assert np.array_equal(ctrl.gain, -d.gamma.T)


@pytest.mark.parametrize("design, match", [
    (lambda: ev.build_gamma([[np.nan]], 2),
     r"pole \(nan\+0j\) is not finite"),
    (lambda: ev.build_gamma([[-np.inf]], 2),
     r"pole \(-inf\+0j\) is not finite"),
    (lambda: ev.linearize_and_place(ev.make_model("chain", m=1, n=2),
                                    [np.nan, -1.0]),
     r"pole \(nan\+0j\) is not finite"),
    (lambda: ev.build_hurwitz([[np.nan]]),
     r"matrix \[\[nan\]\] is not finite"),
], ids=["gamma-nan", "gamma-inf", "place-nan", "hurwitz-nan"])
def test_design_inputs_must_be_finite(design, match):
    with pytest.raises(ev.DesignError, match=match):
        design()


def test_build_gamma_rejects_a_column_that_overflows(monkeypatch):
    # [-1e200]*2 expands to [1e400, 2e200]: rejected before the overshoot
    # estimate, which must never see the inf
    def unreachable(a):
        raise AssertionError("the overflowed Gamma reached expm")
    monkeypatch.setattr("evuas.synthesis.expm", unreachable)
    with pytest.raises(ev.DesignError,
                       match=r"column 1: .* non-finite Gamma column \[inf"):
        ev.build_gamma([[-1.0, -2.0], [-1e200, -1e200]], 3)


def test_build_gamma_rejects_poles_too_stiff_for_the_overshoot():
    # Gamma is finite, but e^{At} of the first block over the second's
    # time range overflows in double precision
    with pytest.raises(ev.DesignError, match="too stiff"):
        ev.build_gamma([[-1e150, -1e150], [-1.0, -2.0]], 3)


@pytest.mark.parametrize("poles, n", [
    ([[-1e17, -1.0]], 3), ([[-1.0, -2.0, -3.0], [-1e16, -1.0, -2.0]], 4)])
def test_build_gamma_rejects_a_column_of_too_widely_spread_poles(poles, n):
    # unchecked, kappa came out as 2.2e111 and 12.8 against sampled closed
    # forms of about 1.344 and 3.04: the companion form rounds such spreads
    with pytest.raises(ev.DesignError, match=f"column {len(poles) - 1}: "
                       r"pole magnitudes 1 \.\.\. 1e\+1[67] differ"):
        ev.build_gamma(poles, n)


def test_overshoot_constant_is_the_sampled_closed_form():
    # a double pole -p has e^{At} = e^{-pt} [[1 + pt, t], [-p^2 t, 1 - pt]];
    # kappa is 1.05 times the largest 2-norm over both blocks on the grid
    d = ev.build_gamma([[-1.0, -1.0], [-4.0, -4.0]], 3)
    ts = np.linspace(0.0, 20.0, 201)
    norms = [np.linalg.norm(np.exp(-p * t) * np.array(
        [[1 + p * t, t], [-p * p * t, 1 - p * t]]), 2)
        for p in (1.0, 4.0) for t in ts]
    assert d.kappa == pytest.approx(1.05 * max(norms), rel=1e-13)


def test_root_reconstruction(rng):
    # rebuilt column polynomials have exactly the declared roots
    for _ in range(20):
        n = int(rng.integers(2, 5))
        cols = []
        for _ in range(int(rng.integers(1, 3))):
            roots = []
            while len(roots) < n - 1:
                if n - 1 - len(roots) >= 2 and rng.random() < 0.4:
                    re, im = -rng.uniform(0.2, 3.0), rng.uniform(0.2, 2.0)
                    roots += [complex(re, im), complex(re, -im)]
                else:
                    roots.append(complex(-rng.uniform(0.2, 3.0), 0.0))
            cols.append(roots)
        d = ev.build_gamma(cols, n)
        for j, col in enumerate(cols):
            rebuilt = np.sort_complex(np.roots(d.column_polynomial(j)[::-1]))
            declared = np.sort_complex(np.asarray(col))
            assert np.max(np.abs(rebuilt - declared)) < 1e-8


def test_gamma_star_floor_and_small_coefficients(rng):
    for _ in range(20):
        d = ev.build_gamma([[-float(rng.uniform(0.05, 5.0))]], 2)
        assert d.gamma_star >= 1.0
        if np.all(np.abs(d.gamma) <= 1.0):
            assert d.gamma_star == 1.0


# --- Hurwitz acceptance

def test_hurwitz_example_matrix():
    h = ev.build_hurwitz([[-1.0, 2.0], [0.0, -1.5]])
    assert sorted(h.eigenvalues.real) == pytest.approx([-1.5, -1.0])
    assert h.max_real_part < 0


def test_hurwitz_rejects_imaginary_axis():
    with pytest.raises(ev.DesignError, match="not Hurwitz"):
        ev.build_hurwitz([[0.0, 1.0], [-1.0, 0.0]])


def test_hurwitz_scalar():
    assert ev.build_hurwitz([[-3.0]]).max_real_part == pytest.approx(-3.0)
    with pytest.raises(ev.DesignError):
        ev.build_hurwitz([[0.0]])
    # an empty or complex matrix raised numpy's bare ValueError (argmax of
    # no eigenvalues) or TypeError
    with pytest.raises(ev.ShapeError, match=r"^a_h: expected a non-empty "
                       r"square matrix, got shape \(0, 0\)$"):
        ev.build_hurwitz(np.zeros((0, 0)))
    with pytest.raises(ev.ShapeError, match=r"^a_h: expected real values, "
                       r"got values of dtype complex128$"):
        ev.build_hurwitz([[-1 + 1j]])


# --- diagonal dominance

def test_nonsingular_reports():
    r = ev.check_nonsingular([[3.0, 1.0], [1.0, 3.0]])
    assert r.levy_desplanques and r.numeric_nonsingular
    r = ev.check_nonsingular([[1.0, 2.0], [2.0, 1.0]])
    assert not r.levy_desplanques and r.numeric_nonsingular
    r = ev.check_nonsingular([[1.0, 1.0], [1.0, 1.0]])
    assert not r.levy_desplanques and not r.numeric_nonsingular


# --- implicit feedback

def test_affine_chain_closed_form():
    model = ev.make_model("chain", m=1, n=2)
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.build_hurwitz([[-1.0]]))
    u = ctrl.solve(np.array([1.0, 1.0]))
    assert u[0] == pytest.approx(-3.0, abs=1e-12)


def test_feedback_zero_at_origin_exactly():
    model = ev.make_model("cubic")
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    assert ctrl.solve(np.zeros(2))[0] == 0.0


def test_cubic_offset_solution():
    # residual offset 2 at X = (2, 0): u + u^3 + 2 = 0 has the real root -1
    model = ev.make_model("cubic")
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.build_hurwitz([[-1.0]]))
    u = ctrl.solve(np.array([2.0, 0.0]))
    assert u[0] == pytest.approx(-1.0, abs=1e-10)


def test_newton_residual_contract(rng):
    model = ev.make_model("cubic")
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-2.0]], 2),
                                  ev.build_hurwitz([[-0.7]]))
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, 2)
        u = ctrl.solve(x)
        assert np.linalg.norm(ctrl.residual(x, u)) <= 1e-12


@functools.lru_cache(maxsize=None)
def _controller(name):
    return ev.synthesize_feedback(ev.make_model(name),
                                  ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))


@pytest.mark.parametrize("name", ["cubic", "tanh"])
@settings(max_examples=60, deadline=None)
@given(x=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2))
def test_newton_returns_a_root_or_raises_with_the_state(name, x):
    # tanh is bounded, so far from the origin no feedback exists: a solve
    # either meets the residual tolerance or says where and by how much
    ctrl = _controller(name)
    x = np.array(x)
    try:
        u = ctrl.solve(x)
    except ev.NewtonError as exc:
        assert name == "tanh"
        assert np.array_equal(exc.x, x)
        assert exc.residual > ctrl.tol
    else:
        assert np.linalg.norm(ctrl.residual(x, u)) <= ctrl.tol


def _fd_model():
    # coupled m = 2 map without jac_u: its Jacobian is a central difference
    return ev.SystemModel(
        2, 2, lambda x, u: np.column_stack(
            [u[:, 0] + u[:, 0] ** 3 + 0.5 * u[:, 1],
             np.tanh(u[:, 1]) + 0.2 * u[:, 0] * x[:, 0]]),
        name="fd")


def _cube_model():
    # F = u^3: its Jacobian 3u^2 is exactly singular at a cold start
    return ev.SystemModel(1, 2, lambda x, u: u ** 3,
                          jac_u=lambda x, u: (3.0 * u ** 2)[:, :, None],
                          name="cube")


@functools.lru_cache(maxsize=None)
def _batch_controller(name):
    if name == "chain2":
        model, poles = ev.make_model("chain", m=2, n=2), [[-1.0], [-2.0]]
    else:
        model = {"fd": _fd_model, "cube": _cube_model}.get(
            name, lambda: ev.make_model(name))()
        poles = [[-1.0]] * model.m
    return ev.ImplicitController(model, ev.build_gamma(poles, 2),
                                 ev.default_hurwitz(model.m))


@pytest.mark.parametrize("name", ["cubic", "tanh", "chain2", "fd", "cube"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_batched_newton_is_the_per_row_solve(name, data):
    ctrl = _batch_controller(name)
    dim, m = ctrl.model.state_dim, ctrl.model.m
    rows = data.draw(st.integers(1, 5))
    xs = np.array(data.draw(st.lists(
        st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim),
        min_size=rows, max_size=rows)))
    want = []
    for x in xs:
        try:
            want.append(newton_reference(ctrl, x))
        except ev.NewtonError as exc:
            want.append(exc)
        except ev.EvaluationError:
            reject()
    for i in range(min(rows, 2)):   # one state: the same solve
        try:
            got = ctrl.solve(xs[i])
        except ev.NewtonError as exc:
            got = exc
            assert exc.row is None
        _assert_same_solve(got, want[i])
    failed = [i for i, w in enumerate(want) if isinstance(w, ev.NewtonError)]
    if not failed:
        got = ctrl.solve(xs)
        assert got.shape == (rows, m)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        return
    # the lowest failing row is reported, as the per-row solve reports it
    with pytest.raises(ev.NewtonError) as exc:
        ctrl.solve(xs)
    assert exc.value.row == failed[0]
    _assert_same_solve(exc.value, want[failed[0]])


def _assert_same_solve(got, want):
    assert type(got) is type(want)
    if isinstance(want, ev.NewtonError):
        assert str(got) == str(want)
        assert np.array_equal(got.x, want.x)
        assert (got.residual, got.iterations, got.singular) == \
            (want.residual, want.iterations, want.singular)
    else:
        assert got.shape == want.shape and np.array_equal(got, want)


def test_batched_newton_covers_every_failure():
    # each failure kind in one batch, behind a row that converges; the
    # lowest failing row is reported, and alone each row fails as before
    tanh, cube = _batch_controller("tanh"), _batch_controller("cube")
    far = np.array([[0.1, 0.0], [3.0, 0.0], [-4.0, 0.0]])
    assert tanh.solve(far[:1]).shape == (1, 1)
    with pytest.raises(ev.NewtonError) as exc:
        tanh.solve(far)
    assert exc.value.row == 1 and not exc.value.singular
    with pytest.raises(ev.NewtonError) as exc:
        tanh.solve(far[::-1])
    assert exc.value.row == 0 and np.array_equal(exc.value.x, far[2])
    with pytest.raises(ev.NewtonError) as exc:
        cube.solve(np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert exc.value.row == 1 and exc.value.singular
    assert exc.value.iterations == 0

    class Stalled(ev.ImplicitController):
        max_iter = 1

    stalled = Stalled(tanh.model, tanh.design, tanh.hurwitz)
    with pytest.raises(ev.NewtonError, match="no convergence in 1") as exc:
        stalled.solve(np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert exc.value.row == 1 and exc.value.iterations == 1


def test_linear_controller_batch_rows_are_one_state_values(rng):
    model = ev.make_model("chain", m=2, n=3)
    ctrl = ev.linearize_and_place(model, [-1.0, -2.0, -3.0, -1.5, -2.5,
                                          -0.5])
    xs = rng.standard_normal((7, model.state_dim))
    batch = ctrl.solve(xs)
    assert batch.shape == (7, 2)
    for x, row in zip(xs, batch):
        assert np.array_equal(row, ctrl.gain @ x)
        assert np.array_equal(ctrl.solve(x), ctrl.gain @ x)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)], ids=["3", "2x2x2"])
def test_linear_controller_rejects_a_state_of_another_shape(shape):
    # it used to fail in numpy's matmul, or return a (2, 2, 1) input
    model = ev.make_model("chain", m=1, n=2)
    ctrl = ev.linearize_and_place(model, [-1.0, -2.0])
    with pytest.raises(ev.ShapeError, match=re.escape(
            f"state: expected shape (2,) or (N, 2), with N >= 1, got {shape}")):
        ctrl.solve(np.ones(shape))


def test_implicit_controller_rejects_an_empty_stack():
    # it used to come back as a (0, 1) input
    ctrl = _batch_controller("tanh")
    with pytest.raises(ev.ShapeError, match=re.escape("got (0, 2)")):
        ctrl.solve(np.zeros((0, 2)))


def test_newton_failure_carries_state():
    # bounded input map: the residual cannot be closed far from the origin
    model = ev.make_model("tanh")
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    with pytest.raises(ev.NewtonError) as exc:
        ctrl.solve(np.array([3.0, 0.0]))
    assert exc.value.x is not None
    assert exc.value.residual > 0


def test_synthesize_rejects_singular_input_jacobian():
    model = ev.SystemModel(1, 2, lambda x, u: 0.0 * u)
    with pytest.raises(ev.DesignError, match="singular"):
        ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                               ev.default_hurwitz(1))


def test_synthesize_rejects_shifted_equilibrium():
    model = ev.SystemModel(1, 2, lambda x, u: u + 0.5)
    with pytest.raises(ValueError, match="equilibrium"):
        ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                               ev.default_hurwitz(1))


# --- coercivity probe

def test_coercivity_verdicts():
    chain = ev.make_model("chain", m=1, n=2)
    cubic = ev.make_model("cubic")
    tanh = ev.make_model("tanh")
    states = [np.zeros(2), np.array([0.5, -1.0])]
    assert ev.coercivity_probe(chain, states)["verdict"] == "coercive-evidence"
    assert ev.coercivity_probe(cubic, states)["verdict"] == "coercive-evidence"
    assert ev.coercivity_probe(tanh, states)["verdict"] == "non-coercive-evidence"


def test_coercivity_radii_validation():
    chain = ev.make_model("chain", m=1, n=2)
    with pytest.raises(ValueError):
        ev.coercivity_probe(chain, [np.zeros(2)], radii=(1.0, 2.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_coercivity_rejects_non_finite_radii(bad):
    # a NaN radius used to come back as an "inconclusive" verdict
    with pytest.raises(ValueError, match="finite, increasing"):
        ev.coercivity_probe(ev.make_model("cubic"), [np.zeros(2)],
                            radii=(1.0, 10.0, 100.0, bad))


@pytest.mark.parametrize("kwargs, match", [
    ({"ray_count": 0}, "^ray_count must be >= 1"),
    ({"ray_count": -1}, "^ray_count must be >= 1"),
    ({"ray_count": 2.5}, "^ray_count: expected an integer"),
    ({"x_samples": []}, "^x_samples must hold at least one probe state$")],
    ids=["no_rays", "negative_rays", "fractional_rays", "no_states"])
def test_coercivity_probe_needs_a_ray_and_a_state(kwargs, match):
    # an empty probe used to come back as an "inconclusive" verdict
    args = {"x_samples": [np.zeros(2)], **kwargs}
    with pytest.raises(ValueError, match=match):
        ev.coercivity_probe(ev.make_model("cubic"), **args)


def test_coercivity_excludes_failing_rays():
    def f(x, u):
        return np.where(u > 50.0, np.nan, u)
    model = ev.SystemModel(1, 2, f)
    data = ev.coercivity_probe(model, [np.zeros(2)], ray_count=8)
    assert data["excluded"]
    assert len(data["costs"]) + len(data["excluded"]) == 8


def test_coercivity_programming_errors_propagate():
    def f(x, u):
        raise TypeError("bad model")
    model = ev.SystemModel(1, 2, f)
    with pytest.raises(TypeError, match="bad model"):
        ev.coercivity_probe(model, [np.zeros(2)], ray_count=4)


# --- linear alternative

def test_pole_placement_double_integrator():
    model = ev.make_model("chain", m=1, n=2)
    ctrl = ev.linearize_and_place(model, [-1.0, -1.0])
    assert np.allclose(ctrl.gain, [[-1.0, -2.0]], atol=1e-12)
    ctrl = ev.linearize_and_place(model, [-2.0, -3.0])
    assert np.allclose(ctrl.gain, [[-6.0, -5.0]], atol=1e-12)


def test_pole_placement_scales_with_input_gain():
    model = ev.SystemModel(1, 2, lambda x, u: 2.0 * np.asarray(u, dtype=float))
    ctrl = ev.linearize_and_place(model, [-1.0, -1.0])
    assert np.allclose(ctrl.gain, [[-0.5, -1.0]], atol=1e-12)


def _linear_model(jx, ju):
    """F = J_X x + J_U u with its exact Jacobians."""
    m = len(ju)
    return ev.SystemModel(m, jx.shape[1] // m,
                          lambda x, u: x @ jx.T + u @ ju.T,
                          jac_u=lambda x, u: np.tile(ju, (len(u), 1, 1)),
                          jac_x=lambda x, u: np.tile(jx, (len(u), 1, 1)))


def _random_poles(rng, m, n, noise=0.0):
    """m conjugate-closed sets of n stable poles, shuffled together.

    Either pole of a pair may come first; ``noise`` moves the imaginary
    part of a real pole and of a pair's second pole.
    """
    poles = []
    for _ in range(m):
        col = []
        while len(col) < n:
            jitter = noise * rng.uniform(-1.0, 1.0)
            if n - len(col) >= 2 and rng.random() < 0.5:
                re, im = -rng.uniform(0.2, 3.0), rng.uniform(0.2, 2.0)
                pair = [complex(re, im), complex(re, -im + jitter)]
                col += pair if rng.random() < 0.5 else pair[::-1]
            else:
                col.append(complex(-rng.uniform(0.2, 3.0), jitter))
        poles += col
    return [poles[i] for i in rng.permutation(len(poles))]


def _well_conditioned(rng, m):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return q * rng.uniform(0.5, 2.0, m)            # condition number <= 4


def test_pole_placement_exact_spectrum(rng):
    # the chain models, then random J_X and well-conditioned J_U: a
    # nonsingular J_U alone makes the linearization controllable
    models = [ev.make_model("chain", m=1, n=3),
              ev.make_model("chain", m=2, n=2)]
    for _ in range(200):
        m, n = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        jx = rng.normal(scale=3.0, size=(m, m * n))
        models.append(_linear_model(jx, _well_conditioned(rng, m)))
    for model in models:
        poles = _random_poles(rng, model.m, model.n)
        ctrl = ev.linearize_and_place(model, poles)
        a, b = ev.linearization(model)
        got = np.sort_complex(np.linalg.eigvals(a + b @ ctrl.gain))
        want = np.sort_complex(np.asarray(poles))
        assert np.max(np.abs(got - want)) < 1e-8


def test_pole_placement_coupled_channels():
    # cross-channel state coupling is cancelled through the input Jacobian
    def f(x, u):
        return np.column_stack([u[:, 0] + 0.7 * x[:, 1] + 0.2 * x[:, 2],
                                2.0 * u[:, 1] - 0.4 * x[:, 0]])
    model = ev.SystemModel(2, 2, f)
    poles = [-1.0, -2.0, -3.0, -4.0]
    ctrl = ev.linearize_and_place(model, poles)
    a, b = ev.linearization(model)
    got = np.sort(np.linalg.eigvals(a + b @ ctrl.gain).real)
    assert np.allclose(got, sorted(poles), atol=1e-8)


def test_pole_placement_rejects_unstable_request():
    model = ev.make_model("chain", m=1, n=2)
    with pytest.raises(ev.DesignError):
        ev.linearize_and_place(model, [1.0, -1.0])


def test_pole_placement_rejects_singular_input_map():
    model = ev.SystemModel(1, 2, lambda x, u: 0.0 * u)
    with pytest.raises(ev.DesignError):
        ev.linearize_and_place(model, [-1.0, -1.0])


def test_pole_placement_rejects_shifted_equilibrium():
    # the gain alone would settle the loop at x1 = 0.5, not at the origin
    model = ev.SystemModel(1, 2, lambda x, u: np.asarray(u) + 0.5)
    with pytest.raises(ValueError, match="equilibrium"):
        ev.linearize_and_place(model, [-1.0, -1.0])


def test_pole_placement_gain_is_the_reference_bit_for_bit():
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        jx = rng.normal(size=(m, m * n))
        ju = _well_conditioned(rng, m)
        poles = _random_poles(rng, m, n, noise=1e-12)
        ctrl = ev.linearize_and_place(_linear_model(jx, ju), poles)
        assert np.array_equal(ctrl.gain, place_reference(jx, ju, poles))


def test_pole_placement_accepts_repeated_and_clustered_poles():
    # the loops are defective or nearly so, and their computed spectra miss
    # the poles by up to 7.6e-5, yet each gain builds the wanted loop
    for n, poles in [(3, [-1.0] * 3), (4, [-1.0] * 4),
                     (10, list(-1.0 - 0.1 * np.arange(10)))]:
        model = ev.make_model("chain", m=1, n=n)
        x0, u0 = np.zeros(n), np.zeros(1)
        jx = ev.jacobian_F_X(model, x0, u0)
        ju = ev.jacobian_F_U(model, x0, u0)
        ctrl = ev.linearize_and_place(model, poles)
        assert np.array_equal(ctrl.gain, place_reference(jx, ju, poles))
        a, b = ev.linearization(model)
        want = -np.poly(poles)[1:][::-1]
        last = (a + b @ ctrl.gain)[-1]
        assert np.max(np.abs(last - want)) <= 1e-12 * np.max(np.abs(want))


def test_pole_placement_rejects_a_spectrum_it_misses():
    # cond(J_U) = 1e10 passes the origin check, but the solve for the gain
    # loses the wanted companion rows beyond the 1e-8 relative bound
    rng = np.random.default_rng(20261020)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    ju = q @ np.diag([1.0, 1.0, 1e-10]) @ q.T
    jx = rng.normal(size=(3, 6))
    with pytest.raises(ev.DesignError, match="pole placement mismatch"):
        ev.linearize_and_place(_linear_model(jx, ju),
                               [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])


def test_pole_placement_rejects_a_non_finite_gain():
    # J_U = 1e-300 is well conditioned, but the gain overflows
    model = ev.SystemModel(1, 2, lambda x, u: 1e-300 * np.asarray(u),
                           jac_u=lambda x, u: np.full((len(u), 1, 1), 1e-300),
                           jac_x=lambda x, u: np.zeros((len(u), 1, 2)))
    with pytest.raises(ev.DesignError, match="non-finite gain"):
        ev.linearize_and_place(model, [-1e5, -1e5])


def test_pole_placement_pairs_a_partner_that_sorts_first():
    # the partner's real part is off by rounding noise, so the requested
    # set sorts [p, conj(p)] the other way round from the placed spectrum
    model = ev.make_model("chain", m=1, n=2)
    poles = [complex(-1.0 - 1e-13, 1.0), complex(-1.0, -1.0)]
    ctrl = ev.linearize_and_place(model, poles)
    assert np.allclose(ctrl.gain, [[-2.0, -2.0]], rtol=0.0, atol=1e-12)
    assert ctrl.placed_poles == list(np.sort_complex(poles))


def test_pole_placement_accepts_noisy_conjugate_partners():
    # rounding noise in the real part of either member of a pair
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        jx = rng.normal(size=(m, m * n))
        ju = _well_conditioned(rng, m)
        poles = [complex(p.real * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0)),
                         p.imag) if p.imag else p
                 for p in _random_poles(rng, m, n)]
        ctrl = ev.linearize_and_place(_linear_model(jx, ju), poles)
        assert np.array_equal(ctrl.gain, place_reference(jx, ju, poles))
        assert ctrl.placed_poles == list(np.sort_complex(poles))


def test_pole_placement_with_a_large_state_coupling():
    # J_X = 1000 (1 ... 1) makes the Kalman matrix numerically rank 1,
    # yet J_U = 1 keeps the linearization controllable
    n = 6
    model = ev.SystemModel(
        1, n, lambda x, u: u + 1000.0 * np.sum(x, axis=1, keepdims=True),
        jac_u=lambda x, u: np.ones((len(u), 1, 1)),
        jac_x=lambda x, u: np.full((len(u), 1, n), 1000.0))
    poles = [-1.5, -1.4, -1.3, -1.2, -1.1, -1.0]
    ctrl = ev.linearize_and_place(model, poles)
    a, b = ev.linearization(model)
    got = np.sort(np.linalg.eigvals(a + b @ ctrl.gain).real)
    assert np.max(np.abs(got - poles)) < 1e-8


# --- region-of-attraction arithmetic

def test_roa_worked_examples():
    unit = ev.GammaDesign(gamma=np.array([[1.0]]), poles=[[-1.0]], n=2, m=1,
                          gamma_star=1.0, mu_gamma=1.0, kappa=1.0)
    r = ev.estimate_roa(unit, r_max=1.0, epsilon=0.5, delta_E_of_eps=0.3)
    assert r.delta_star_E == pytest.approx(0.3, abs=1e-15)
    assert r.delta_star_X == pytest.approx(0.5, abs=1e-15)
    assert r.delta_star == pytest.approx(0.3, abs=1e-15)

    wide = ev.GammaDesign(gamma=np.array([[2.0] * 4]), poles=[[-2.0]] * 4,
                          n=2, m=4, gamma_star=2.0, mu_gamma=2.0, kappa=1.0)
    r = ev.estimate_roa(wide, r_max=1.0, epsilon=0.5, delta_E_of_eps=0.4)
    assert r.delta_star_E == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize("bad", [{"r_max": np.nan}, {"r_max": np.inf},
                                 {"epsilon": np.nan},
                                 {"delta_E_of_eps": np.nan},
                                 {"theta2": np.inf}])
def test_roa_rejects_non_finite_constants(bad):
    unit = ev.GammaDesign(gamma=np.array([[1.0]]), poles=[[-1.0]], n=2, m=1,
                          gamma_star=1.0, mu_gamma=1.0, kappa=1.0)
    kwargs = dict(r_max=1.0, epsilon=0.5, delta_E_of_eps=0.3)
    with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be "
                                         "positive and finite"):
        ev.estimate_roa(unit, **{**kwargs, **bad})


def test_roa_rejects_oversized_epsilon():
    unit = ev.GammaDesign(gamma=np.array([[1.0]]), poles=[[-1.0]], n=2, m=1,
                          gamma_star=1.0, mu_gamma=1.0, kappa=1.0)
    with pytest.raises(ev.DesignError):
        ev.estimate_roa(unit, r_max=1.0, epsilon=1.5, delta_E_of_eps=0.3)


def test_controller_summary_round_trips_json():
    import json
    model = ev.make_model("chain", m=1, n=2)
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    blob = json.dumps(ctrl.to_summary())
    back = json.loads(blob)
    assert back["mode"] == "implicit-newton"
    assert back["newton"]["tol"] == 1e-12


@pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 2)])
def test_input_free_term_batch_rows_are_the_single_state_terms(m, n):
    # leading axes are batch axes: each row's term is bit for bit the term
    # of its state alone, and the flat layout is X column by column
    rng = np.random.default_rng(m * 10 + n)
    gamma = rng.standard_normal((n - 1, m))
    a_h = rng.standard_normal((m, m))
    xs = rng.standard_normal((5, m * n))
    batch = ev.input_free_term(xs, gamma, a_h, m, n)
    errors = ev.tracking_error(xs, gamma, m, n)
    assert batch.shape == errors.shape == (5, m)
    for x, row, err_row in zip(xs, batch, errors):
        assert np.array_equal(row, ev.input_free_term(x, gamma, a_h, m, n))
        assert np.array_equal(err_row, ev.tracking_error(x, gamma, m, n))
        # X[j, k] is y_j^(k); e_j = sum_k gamma[k, j] y_j^(k) + y_j^(n-1),
        # and the input-free part of e_j' shifts every derivative up by one
        xmat = [[x[k * m + j] for k in range(n)] for j in range(m)]
        err = [sum(gamma[k, j] * xmat[j][k] for k in range(n - 1))
               + xmat[j][n - 1] for j in range(m)]
        want = [sum(gamma[k, j] * xmat[j][k + 1] for k in range(n - 1))
                - sum(a_h[j, i] * err[i] for i in range(m))
                for j in range(m)]
        assert np.allclose(err_row, err, rtol=0.0, atol=1e-12)
        assert np.allclose(row, want, rtol=0.0, atol=1e-12)


_DESIGNS = {(1, 2): ([[-1.0]], [[-2.0]]),
            (2, 3): ([[-1.0, -2.0], [-0.5 + 1j, -0.5 - 1j]],
                     [[-1.0, 2.0], [0.0, -1.5]]),
            (1, 4): ([[-1.0, -2.0, -3.0]], [[-0.5]])}


@pytest.mark.parametrize("m, n", sorted(_DESIGNS))
def test_closed_loop_matrix_is_the_designed_right_hand_side(m, n):
    poles, a_h = _DESIGNS[(m, n)]
    design, hurwitz = ev.build_gamma(poles, n), ev.build_hurwitz(a_h)
    mat = closed_loop_matrix(design, hurwitz)
    xs = np.random.default_rng(m * 10 + n).standard_normal((20, m * n))
    want = np.concatenate(
        [xs[:, m:], -ev.input_free_term(xs, design.gamma, hurwitz.a_h, m, n)],
        axis=1)
    got = xs @ mat.T
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("m, n", sorted(_DESIGNS))
def test_closed_loop_matrix_spectrum(m, n):
    # the design poles together with eig(A_H), compared as characteristic
    # polynomials, which a repeated eigenvalue leaves well conditioned
    poles, a_h = _DESIGNS[(m, n)]
    design, hurwitz = ev.build_gamma(poles, n), ev.build_hurwitz(a_h)
    mat = closed_loop_matrix(design, hurwitz)
    want = np.concatenate([np.ravel(poles), hurwitz.eigenvalues])
    assert np.allclose(np.poly(mat), np.poly(want).real, rtol=0, atol=1e-12)


def test_closed_loop_matrix_jordan_block():
    # cubic with pole -1 and A_H = -1: a double eigenvalue -1 with one
    # eigenvector, so M cannot be diagonalized
    model = ev.make_model("cubic")
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    mat = closed_loop_matrix(ctrl.design, ctrl.hurwitz)
    assert np.array_equal(mat, [[0.0, 1.0], [-1.0, -2.0]])
    assert np.allclose(np.poly(mat), [1.0, 2.0, 1.0], rtol=0, atol=1e-14)
    assert np.linalg.matrix_rank(mat + np.eye(2)) == 1
