import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evuas as ev
import evuas.diminishing as dim
from evuas.perturbations import _COLUMN_TERMS_EXAMPLE1_BOUNDED

from oracles import window_sup_simpson


def test_zero_signal_vanishes():
    assert ev.window_integral_sup(lambda t: np.zeros_like(np.asarray(t, float)),
                                  5.0) == 0.0


def test_sine_window_closed_form():
    # running integral 1 - cos(lambda) is increasing on [0, 1]
    v = ev.window_integral_sup(np.sin, 0.0, quad_tol=1e-12)
    assert v == pytest.approx(1.0 - math.cos(1.0), abs=1e-10)


def test_constant_vector_attains_sup_at_window_end():
    def h(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros((3,) + t.shape)
        out[0] = 1.0
        return out
    for t in (0.0, 4.2, 17.0):
        assert ev.window_integral_sup(h, t) == pytest.approx(1.0, abs=1e-12)


def test_cos_exp_window_within_paper_bound():
    sig = ev.make_signal("cos_exp")
    v = ev.window_integral_sup(sig.fn, 3.0, quad_tol=1e-10,
                               freq_hint=sig.freq_hint)
    assert 0.0 <= v <= 4.0 * math.exp(-3.0)


def test_monotone_integrand_sup_at_full_window(rng):
    # nonnegative scalar integrand: the sup equals the full-window integral
    for c in (0.5, 2.0):
        v = ev.window_integral_sup(
            lambda t, c=c: c * np.ones_like(np.asarray(t, float)), 1.0)
        assert v == pytest.approx(c, abs=1e-10)
    # h(tau) = tau on [2, 3]: integral = 2.5
    v = ev.window_integral_sup(lambda t: np.asarray(t, dtype=float), 2.0)
    assert v == pytest.approx(2.5, abs=1e-10)
    # h(tau) = exp(-tau): closed form e^-1 - e^-2
    v = ev.window_integral_sup(lambda t: np.exp(-np.asarray(t, float)), 1.0)
    assert v == pytest.approx(math.exp(-1) - math.exp(-2), abs=1e-10)


def test_norm_consistency_for_embedded_scalar():
    def h(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros((4,) + t.shape)
        out[0] = np.sin(3.0 * t)
        return out
    ve = ev.window_integral_sup(h, 0.7, norm="euclidean")
    vi = ev.window_integral_sup(h, 0.7, norm="inf")
    assert ve == pytest.approx(vi, abs=1e-10)


def test_scaling_homogeneity():
    base = ev.window_integral_sup(np.sin, 0.0, quad_tol=1e-12)
    for c in (-3.0, 0.25, 7.0):
        v = ev.window_integral_sup(
            lambda t, c=c: c * np.sin(np.asarray(t, float)), 0.0,
            quad_tol=1e-12)
        assert v == pytest.approx(abs(c) * base, abs=1e-9)


def test_agrees_with_simpson_oracle():
    sig = ev.make_signal("t_cos_t4")
    for t in (1.0, 4.0, 7.0):
        mine = ev.window_integral_sup(sig.fn, t, quad_tol=1e-9,
                                      freq_hint=sig.freq_hint)
        ref = window_sup_simpson(sig.fn, t, 4.0 * (t + 1.0) ** 3)
        assert mine == pytest.approx(ref, abs=5e-6)


def test_zero_crossing_scan_handles_missing_hint():
    # moderately oscillatory signal without a hint still converges
    v = ev.window_integral_sup(lambda t: np.cos(40.0 * np.asarray(t, float)),
                               0.0, quad_tol=1e-10)
    # |int cos(40 tau)| <= 2/40; sup is sin(40 lambda)/40 maximized at 1/40
    assert v == pytest.approx(1.0 / 40.0, abs=1e-8)


def test_budget_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(dim, "_MAX_PANELS", 1024)
    sig = ev.make_signal("cos_exp")
    with pytest.raises(ev.QuadratureBudgetError) as exc:
        ev.window_integral_sup(sig.fn, 9.0, quad_tol=1e-14,
                               freq_hint=sig.freq_hint)
    assert exc.value.estimate is not None
    assert exc.value.error_bound is not None


def test_profile_point_over_the_budget_is_a_partial_profile(monkeypatch):
    # the window at t = 9 needs more panels than the budget; the windows
    # at t = 0 and 1 resolve as they do without it
    sig = ev.make_signal("cos_exp")
    grid = [0.0, 1.0, 9.0]
    full = ev.diminishing_profile(sig.fn, grid, quad_tol=1e-10,
                                  freq_hint=sig.freq_hint)
    monkeypatch.setattr(dim, "_MAX_PANELS", 1024)
    prof = ev.diminishing_profile(sig.fn, grid, quad_tol=1e-10,
                                  freq_hint=sig.freq_hint)
    assert np.array_equal(prof.values[:2], full.values[:2])
    assert np.isnan(prof.values[2])
    assert prof.partial and prof.trend == "inconclusive"
    [failure] = prof.failures
    assert failure["t"] == 9.0
    assert failure["error_bound"] > 1e-10
    assert 0.0 < failure["estimate"] <= 4.0 * math.exp(-9.0)
    cls = ev.classify(ev.make_perturbation("cos_exp"), 1.0, 10.0,
                      quad_tol=1e-10, profile_grid=grid)
    assert cls.column_profiles[0].partial
    assert cls.diminishing_evidence == "inconclusive"


def test_vector_profile_under_paper_bound():
    sig = ev.make_signal("vec_cos_sin_exp")
    prof = ev.diminishing_profile(sig.fn, np.arange(0.0, 9.0),
                                  quad_tol=1e-9, freq_hint=sig.freq_hint)
    assert prof.trend == "decreasing"
    assert np.all(prof.values <= math.sqrt(32.0) * np.exp(-prof.t_grid) + 1e-9)


def test_unbounded_signal_profile_decays():
    sig = ev.make_signal("t_cos_t4")
    prof = ev.diminishing_profile(sig.fn, np.arange(1.0, 11.0),
                                  quad_tol=1e-9, freq_hint=sig.freq_hint)
    assert prof.trend == "decreasing"
    assert prof.values[-1] < 0.1 * prof.values[0]


def test_constant_profile_not_diminishing():
    sig = ev.make_signal("const1")
    prof = ev.diminishing_profile(sig.fn, np.arange(0.0, 6.0))
    assert np.allclose(prof.values, 1.0, atol=1e-9)
    assert prof.trend == "not-decreasing"


def test_profile_rejects_bad_grid():
    with pytest.raises(ValueError):
        ev.diminishing_profile(np.sin, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        ev.window_integral_sup(np.sin, 0.0, quad_tol=-1e-9)
    with pytest.raises(ValueError):
        ev.window_integral_sup(np.sin, 0.0, norm="manhattan")


@pytest.mark.parametrize("name, call", [
    pytest.param("t", lambda: ev.window_integral_sup(np.sin, math.nan),
                 id="window_t_nan"),
    pytest.param("quad_tol", lambda: ev.window_integral_sup(
        np.sin, 0.0, quad_tol=math.nan), id="window_quad_tol_nan"),
    pytest.param("t_grid", lambda: ev.diminishing_profile(
        np.sin, [0.0, math.nan, 2.0]), id="profile_grid_nan"),
    pytest.param("probe_radius", lambda: ev.classify(
        ev.make_perturbation("cos_exp"), math.nan, 20.0),
        id="classify_radius_nan"),
    pytest.param("t_horizon", lambda: ev.classify(
        ev.make_perturbation("cos_exp"), 1.0, math.nan),
        id="classify_horizon_nan"),
    pytest.param("t_horizon", lambda: ev.classify(
        ev.make_perturbation("cos_exp"), 1.0, math.inf),
        id="classify_horizon_inf")])
def test_non_finite_arguments_are_rejected_up_front(name, call):
    # NaN passes a "<= 0" check: it must be an input error, not a budget
    # error after a long refinement or an "inconclusive" verdict
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


def test_classify_state_proportional_vanishes_at_origin():
    pert = ev.PerturbationSpec.factored(
        lambda t: np.eye(2), lambda x: np.asarray(x, dtype=float), 2,
        name="identity_state")
    cls = ev.classify(pert, probe_radius=1.0, t_horizon=20.0)
    assert cls.vanishing_at_x0 == "yes"
    assert cls.bounded_on_window


def test_classify_cos_exp():
    cls = ev.classify(ev.make_perturbation("cos_exp"), 1.0, 20.0,
                      profile_grid=np.arange(0.0, 8.0))
    assert cls.vanishing_at_tinf == "no"
    assert cls.vanishing_at_x0 == "no"
    assert cls.diminishing_evidence == "supported"
    assert cls.bounded_on_window


def test_classify_unbounded_pair():
    cls = ev.classify(ev.make_perturbation("vec_t_cos_sin_t4"), 1.0, 20.0,
                      profile_grid=np.arange(1.0, 9.0))
    assert not cls.bounded_on_window
    assert cls.sampled_sup == pytest.approx(20.0, rel=0.05)
    assert cls.diminishing_evidence == "supported"


def test_classify_constant_refuted():
    cls = ev.classify(ev.make_perturbation("const_e1", dim=2), 1.0, 20.0,
                      profile_grid=np.arange(0.0, 6.0))
    assert cls.diminishing_evidence == "refuted"
    assert cls.vanishing_at_tinf == "no"


def test_classify_decaying_signal_vanishes_at_infinity():
    pert = ev.PerturbationSpec.from_signal(
        lambda t: np.exp(-np.asarray(t, dtype=float))[None]
        if np.ndim(t) else np.array([math.exp(-t)]), 1, name="decay")
    cls = ev.classify(pert, 1.0, 40.0, profile_grid=np.arange(0.0, 6.0))
    assert cls.vanishing_at_tinf == "yes"


def test_classify_zero_perturbation():
    cls = ev.classify(ev.PerturbationSpec.zero(2), 1.0, 10.0,
                      profile_grid=np.arange(0.0, 5.0))
    assert cls.vanishing_at_x0 == "yes"
    assert cls.vanishing_at_tinf == "yes"
    assert cls.diminishing_evidence == "supported"


def test_profile_points_deterministic():
    sig = ev.make_signal("cos_exp")
    a = ev.diminishing_profile(sig.fn, np.arange(0.0, 5.0), quad_tol=1e-9,
                               freq_hint=sig.freq_hint)
    b = ev.diminishing_profile(sig.fn, np.arange(0.0, 5.0), quad_tol=1e-9,
                               freq_hint=sig.freq_hint)
    assert np.array_equal(a.values, b.values)


@settings(max_examples=8, deadline=None)
@given(t=st.floats(0.0, 8.0))
def test_window_sup_matches_simpson_oracle_on_cos_exp(t):
    sig = ev.make_signal("cos_exp")
    mine = ev.window_integral_sup(sig.fn, t, quad_tol=1e-9,
                                  freq_hint=sig.freq_hint)
    ref = window_sup_simpson(sig.fn, t, math.exp(t + 1.0))
    assert mine == pytest.approx(ref, abs=2e-6)


# the frequency hints as they were written by hand before the catalog
# declared chirp terms: |phase'| of e^t and of t^4
_HAND_HINTS = {"cos_exp": np.exp, "vec_cos_sin_exp": np.exp,
               "t_cos_t4": lambda t: 4.0 * t ** 3,
               "vec_t_cos_sin_t4": lambda t: 4.0 * t ** 3,
               "example1_unbounded": lambda t: 4.0 * t ** 3,
               "example1_bounded": np.exp,
               "const1": None, "const_e1": None, "zero": None}


def _chirp_sum(terms, t, dim):
    out = np.zeros((dim, t.size))
    for term in terms:
        phase = 1.0 if term.phase is None else np.exp(1j * term.phase(t))
        out += np.real(np.asarray(term.c)[:, None] * term.a(t) * phase)
    return out


def _catalog_chirps():
    """(name, [(terms, vectorized fn)], dim, freq_hint) of every entry."""
    for name, sig in ev.SIGNAL_CATALOG.items():
        yield "signal:" + name, [(sig.terms, sig.fn)], sig.dim, sig.freq_hint
    for name in ev.PERTURBATION_CATALOG:
        pert = ev.make_perturbation(name)
        if pert.kind == "time":
            pairs = [(pert.terms, pert.w)]
        elif pert.kind == "factored":
            pairs = [((term,), col) for term, col in
                     zip(_COLUMN_TERMS_EXAMPLE1_BOUNDED, pert.columns())]
        else:
            continue
        yield name, pairs, pert.dim, pert.freq_hint


@pytest.mark.parametrize("entry", list(_catalog_chirps()),
                         ids=lambda entry: entry[0])
def test_chirp_terms_are_the_signal(entry, rng):
    name, pairs, dim_, hint = entry
    t = np.sort(rng.uniform(0.0, 20.0, 200))
    for terms, fn in pairs:
        want = np.asarray(fn(t), dtype=float).reshape(dim_, t.size)
        amp = sum(np.abs(term.a(t)) for term in terms)
        assert np.all(np.abs(_chirp_sum(terms, t, dim_) - want)
                      <= 1e-12 * np.maximum(1.0, amp))
    old = _HAND_HINTS[name.removeprefix("signal:")]
    if old is None:
        assert hint is None
    else:
        assert [hint(s) for s in t.tolist()] == [old(s) for s in t.tolist()]


def test_chirp_freq_is_the_fastest_rate():
    freq = dim.chirp_freq([dim.exp_chirp((1,)), dim.quartic_chirp((1,)),
                           dim.constant_term((1,))])
    t = np.linspace(0.0, 5.0, 11)
    assert np.array_equal(freq(t), np.maximum(np.exp(t), 4.0 * t ** 3))
    assert dim.chirp_freq([dim.constant_term((1,))]) is None


def _catalog_time_signals():
    for name, sig in ev.SIGNAL_CATALOG.items():
        yield "signal:" + name, sig.fn, sig.dim
    for name in ev.PERTURBATION_CATALOG:
        pert = ev.make_perturbation(name)
        if pert.kind == "time":
            yield name, pert.w, pert.dim


@pytest.mark.parametrize("entry", list(_catalog_time_signals()),
                         ids=lambda entry: entry[0])
def test_time_signal_at_one_time_is_its_array_column(entry, rng):
    # the integrators call a signal at one time, the window quadrature and
    # the chirp terms on arrays: both must be the same signal, bit for bit
    _, fn, dim_ = entry
    t = rng.uniform(0.0, 20.0, 200)
    arr = np.asarray(fn(t), dtype=float).reshape(dim_, t.size)
    for i, s in enumerate(t.tolist()):
        one = np.asarray(fn(s), dtype=float).reshape(dim_)
        assert np.array_equal(one, arr[:, i]), s


def test_example1_bounded_scalar_d_tracks_its_array_path(rng):
    # D keeps a math path for one time; it may differ from the array path
    # only by what one ulp of e^t does to the phase
    d = ev.make_perturbation("example1_bounded").d
    t = rng.uniform(0.0, 20.0, 2000)
    arr = d(t)
    for i, s in enumerate(t.tolist()):
        gap = np.max(np.abs(d(s) - arr[..., i]))
        assert gap <= 4.0 * np.finfo(float).eps * math.exp(s), s


def test_scalar_only_d_columns_match_a_vectorized_twin():
    def d_scalar(t):
        return np.diag([math.sin(t), 1.0])        # one time only

    def d_array(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros((2, 2) + t.shape)
        out[0, 0] = np.sin(t)
        out[1, 1] = 1.0
        return out

    grid = np.arange(0.0, 3.0)
    profiles = []
    for d in (d_scalar, d_array):
        pert = ev.PerturbationSpec.factored(d, lambda x: x, 2, freq_hint=1.0)
        cols = pert.columns()
        assert np.array_equal(cols[0](0.3), [math.sin(0.3), 0.0])
        profiles.append([ev.diminishing_profile(col, grid, quad_tol=1e-10,
                                                freq_hint=1.0).values
                         for col in cols])
    for scalar, vector in zip(*profiles):
        assert np.allclose(scalar, vector, rtol=1e-12, atol=1e-14)


def test_a_signal_failing_on_arrays_for_another_reason_raises():
    # only a scalar-only callable's TypeError or ValueError falls back to
    # one time at a time; any other error on an array is the signal's own
    def h(t):
        if isinstance(t, np.ndarray):
            raise RuntimeError("array evaluation failed")
        return math.sin(t)

    with pytest.raises(RuntimeError, match="array evaluation failed"):
        dim.SignalAdapter(h)(np.linspace(0.0, 1.0, 5))
