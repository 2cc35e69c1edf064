import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evuas as ev


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


def test_newton_warm_start_consistency(rng):
    model = ev.make_model("cubic")
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    x = np.array([0.8, -0.4])
    cold = ctrl.solve(x)
    warm = ctrl.solve(x, u0=cold + 1e-3)
    assert warm[0] == pytest.approx(cold[0], abs=1e-9)


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
    model = ev.SystemModel(1, 2, lambda x, u: np.array([0.0 * u[0]]))
    with pytest.raises(ev.DesignError, match="singular"):
        ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                               ev.default_hurwitz(1))


def test_synthesize_rejects_shifted_equilibrium():
    model = ev.SystemModel(1, 2, lambda x, u: np.array([u[0] + 0.5]))
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


def test_coercivity_excludes_failing_rays():
    def f(x, u):
        if u[0] > 50.0:
            return np.array([np.nan])
        return np.array([u[0]])
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


def test_pole_placement_exact_spectrum(rng):
    for m, n in ((1, 3), (2, 2)):
        model = ev.make_model("chain", m=m, n=n)
        poles = []
        while len(poles) < m * n:
            if m * n - len(poles) >= 2 and rng.random() < 0.5:
                re, im = -rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(complex(-rng.uniform(0.5, 3.0), 0.0))
        ctrl = ev.linearize_and_place(model, poles)
        a, b = ev.linearization(model)
        got = np.sort_complex(np.linalg.eigvals(a + b @ ctrl.gain))
        want = np.sort_complex(np.asarray(poles))
        assert np.max(np.abs(got - want)) < 1e-8


def test_pole_placement_coupled_channels():
    # cross-channel state coupling is cancelled through the input Jacobian
    def f(x, u):
        return np.array([u[0] + 0.7 * x[1] + 0.2 * x[2],
                         2.0 * u[1] - 0.4 * x[0]])
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
    model = ev.SystemModel(1, 2, lambda x, u: np.array([0.0 * u[0]]))
    with pytest.raises(ev.DesignError):
        ev.linearize_and_place(model, [-1.0, -1.0])


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
    r = ev.estimate_roa(wide, r_max=1.0, epsilon=0.5, delta_E_of_eps=0.4, m=4)
    assert r.delta_star_E == pytest.approx(0.1, abs=1e-15)


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
