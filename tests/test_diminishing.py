import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evuas as ev
import evuas.diminishing as dim
from evuas.norms import point_norms
from evuas.perturbations import _COLUMN_TERMS_EXAMPLE1_BOUNDED

from oracles import crossing_count_loop, window_sup_simpson


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
    sig = ev.make_perturbation("cos_exp")
    v = ev.window_integral_sup(sig.w, 3.0, quad_tol=1e-10,
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
    sig = ev.make_perturbation("t_cos_t4")
    for t in (1.0, 4.0, 7.0):
        mine = ev.window_integral_sup(sig.w, t, quad_tol=1e-9,
                                      freq_hint=sig.freq_hint)
        ref = window_sup_simpson(sig.w, t, 4.0 * (t + 1.0) ** 3)
        assert mine == pytest.approx(ref, abs=5e-6)


def test_zero_crossing_scan_handles_missing_hint():
    # moderately oscillatory signal without a hint still converges
    v = ev.window_integral_sup(lambda t: np.cos(40.0 * np.asarray(t, float)),
                               0.0, quad_tol=1e-10)
    # |int cos(40 tau)| <= 2/40; sup is sin(40 lambda)/40 maximized at 1/40
    assert v == pytest.approx(1.0 / 40.0, abs=1e-8)


def test_budget_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(dim, "_MAX_PANELS", 1024)
    sig = ev.make_perturbation("cos_exp")
    with pytest.raises(ev.QuadratureBudgetError) as exc:
        ev.window_integral_sup(sig.w, 9.0, quad_tol=1e-14,
                               freq_hint=sig.freq_hint)
    # the estimate of the last mesh, several blocks wide, and its difference
    assert 0.0 < exc.value.estimate <= 4.0 * math.exp(-9.0)
    assert exc.value.error_bound > 1e-14


def _one_shot_running_integral(sig, t, n_panels):
    # the running integral with the signal evaluated on all 8 n nodes at once
    nodes, weights = dim._GL8
    bounds = t + np.linspace(0.0, 1.0, n_panels + 1)
    half = 0.5 / n_panels
    centers = 0.5 * (bounds[:-1] + bounds[1:])
    vals = sig((centers[:, None] + half * nodes[None, :]).ravel())
    panels = (vals.reshape(len(vals), n_panels, nodes.size)
              * weights).sum(axis=2) * half
    cum = np.zeros((len(vals), n_panels + 1))
    np.cumsum(panels, axis=1, out=cum[:, 1:])
    return bounds, cum


@pytest.mark.parametrize("n_blocks", [0.5, 1, 2.3, 4],
                         ids=["below", "one", "not_a_multiple", "several"])
@pytest.mark.parametrize("name", ["vec_cos_sin_exp", "example1_bounded"])
def test_blocked_running_integral_is_the_one_shot_bit_for_bit(name, n_blocks):
    # blocks of at most _BLOCK_PANELS panels reduce to the same panel sums
    pert = ev.make_perturbation(name)
    sig = dim.SignalAdapter(pert.w if pert.kind == "time"
                            else pert.columns()[1])
    n = int(n_blocks * dim._BLOCK_PANELS)
    sizes = []

    def recorded(ts):
        sizes.append(ts.size)
        return sig(ts)
    bounds, cum = dim._running_integral(recorded, 3.25, n)
    ref_bounds, ref_cum = _one_shot_running_integral(sig, 3.25, n)
    assert np.array_equal(bounds, ref_bounds)
    assert np.array_equal(cum, ref_cum)
    assert sum(sizes) == 8 * n
    assert max(sizes) == 8 * min(n, dim._BLOCK_PANELS)


def test_late_window_memory_stays_bounded():
    # blocks hold the peak to about 8 MB; the whole 8 n-node D array of the
    # t = 10 mesh took 71.5 MB
    pert = ev.make_perturbation("example1_bounded")
    col = pert.columns()[0]
    tracemalloc.start()
    try:
        ev.window_integral_sup(col, 10.0, quad_tol=1e-8,
                               freq_hint=pert.freq_hint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("freq_hint", [None, 200.0], ids=["scan", "hint"])
def test_a_non_finite_signal_value_raises_at_its_time(bad, freq_hint):
    # it used to run the mesh up to the panel budget and raise
    # QuadratureBudgetError with a NaN estimate (an inf warned first)
    calls = []

    def h(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(t), np.where(t > 0.5, bad, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ev.EvaluationError) as exc:
            ev.window_integral_sup(_recording(h, calls), 0.0,
                                   freq_hint=freq_hint)
    ts = calls[-1]
    first = float(np.min(ts[ts > 0.5]))
    assert str(exc.value) == (f"time signal returned a non-finite value at "
                              f"t={first} at component 1")
    assert exc.value.component == 1 and exc.value.where == "time signal"


def test_a_non_finite_signal_value_is_no_partial_profile():
    # a data error is raised, never turned into an "inconclusive" verdict
    def h(t):
        return np.where(np.asarray(t) > 0.5, np.nan, 1.0)
    with pytest.raises(ev.EvaluationError, match=r"at t=0\.5\d* "):
        ev.diminishing_profile(h, [0.0, 1.0, 2.0])


def test_profile_point_over_the_budget_is_a_partial_profile(monkeypatch):
    # the window at t = 9 needs more panels than the budget; the windows
    # at t = 0 and 1 resolve as they do without it
    sig = ev.make_perturbation("cos_exp")
    grid = [0.0, 1.0, 9.0]
    full = ev.diminishing_profile(sig.w, grid, quad_tol=1e-10,
                                  freq_hint=sig.freq_hint)
    monkeypatch.setattr(dim, "_MAX_PANELS", 1024)
    prof = ev.diminishing_profile(sig.w, grid, quad_tol=1e-10,
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
    sig = ev.make_perturbation("vec_cos_sin_exp")
    prof = ev.diminishing_profile(sig.w, np.arange(0.0, 9.0),
                                  quad_tol=1e-9, freq_hint=sig.freq_hint)
    assert prof.trend == "decreasing"
    assert np.all(prof.values <= math.sqrt(32.0) * np.exp(-prof.t_grid) + 1e-9)


def test_unbounded_signal_profile_decays():
    sig = ev.make_perturbation("t_cos_t4")
    prof = ev.diminishing_profile(sig.w, np.arange(1.0, 11.0),
                                  quad_tol=1e-9, freq_hint=sig.freq_hint)
    assert prof.trend == "decreasing"
    assert prof.values[-1] < 0.1 * prof.values[0]


def test_constant_profile_not_diminishing():
    sig = ev.make_perturbation("const1")
    prof = ev.diminishing_profile(sig.w, np.arange(0.0, 6.0))
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
        lambda t: np.multiply.outer(np.eye(2), np.ones(np.shape(t))),
        lambda x: np.asarray(x, dtype=float), 2, name="identity_state")
    cls = ev.classify(pert, probe_radius=1.0, t_horizon=20.0)
    assert cls.vanishing_at_x0 == "yes"
    assert cls.bounded_on_window


def test_classify_reads_w_in_two_calls():
    # one call on the tail times and one on the horizon times, with one
    # K call per probe point in each
    calls = {"evaluate": 0, "k": 0}

    def k(x):
        calls["k"] += 1
        return x

    pert = ev.PerturbationSpec.factored(
        lambda t: np.multiply.outer(np.eye(2), np.ones(np.shape(t))), k, 2)
    evaluate = pert.evaluate

    def counted(ts, x):
        calls["evaluate"] += 1
        return evaluate(ts, x)

    pert.evaluate = counted
    ev.classify(pert, 1.0, 4.0, profile_grid=[0.0, 1.0])
    points = 1 + 3 * 8           # the origin and 8 directions at 3 radii
    assert calls == {"evaluate": 2, "k": 2 * points}


@pytest.mark.parametrize("norm", ["euclidean", "inf"])
@pytest.mark.parametrize("shape", [(7,), (13, 5), (4, 6, 3)],
                         ids=["1d", "2d", "3d"])
def test_point_norms_are_vector_norms_bit_for_bit(shape, norm, rng):
    # each row against its own norm, computed one vector at a time
    alone = {"euclidean": lambda u: np.sqrt(u @ u),
             "inf": lambda u: np.max(np.abs(u))}[norm]
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    got = np.asarray(point_norms(v, norm))
    assert got.shape == shape[:-1]
    for idx in np.ndindex(*shape[:-1]):
        assert got[idx] == alone(v[idx])


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
        lambda t: np.exp(-np.asarray(t, dtype=float))[None], 1, name="decay")
    cls = ev.classify(pert, 1.0, 40.0, profile_grid=np.arange(0.0, 6.0))
    assert cls.vanishing_at_tinf == "yes"


def test_classify_zero_perturbation():
    cls = ev.classify(ev.PerturbationSpec.zero(2), 1.0, 10.0,
                      profile_grid=np.arange(0.0, 5.0))
    assert cls.vanishing_at_x0 == "yes"
    assert cls.vanishing_at_tinf == "yes"
    assert cls.diminishing_evidence == "supported"


def test_profile_points_deterministic():
    sig = ev.make_perturbation("cos_exp")
    a = ev.diminishing_profile(sig.w, np.arange(0.0, 5.0), quad_tol=1e-9,
                               freq_hint=sig.freq_hint)
    b = ev.diminishing_profile(sig.w, np.arange(0.0, 5.0), quad_tol=1e-9,
                               freq_hint=sig.freq_hint)
    assert np.array_equal(a.values, b.values)


@settings(max_examples=8, deadline=None)
@given(t=st.floats(0.0, 8.0))
def test_window_sup_matches_simpson_oracle_on_cos_exp(t):
    sig = ev.make_perturbation("cos_exp")
    mine = ev.window_integral_sup(sig.w, t, quad_tol=1e-9,
                                  freq_hint=sig.freq_hint)
    ref = window_sup_simpson(sig.w, t, math.exp(t + 1.0))
    assert mine == pytest.approx(ref, abs=2e-6)


# the frequency hints as they were written by hand before the catalog
# declared chirp terms: |phase'| of e^t and of t^4
_HAND_HINTS = {"cos_exp": np.exp, "vec_cos_sin_exp": np.exp,
               "t_cos_t4": lambda t: 4.0 * t ** 3,
               "vec_t_cos_sin_t4": lambda t: 4.0 * t ** 3,
               "example1_unbounded": lambda t: 4.0 * t ** 3,
               "example1_bounded": np.exp,
               "const1": None, "const_e1": None}


def _chirp_sum(terms, t, dim):
    out = np.zeros((dim, t.size))
    for term in terms:
        phase = 1.0 if term.phase is None else np.exp(1j * term.phase(t))
        out += np.real(np.asarray(term.c)[:, None] * term.a(t) * phase)
    return out


def _catalog_chirps():
    """(name, [(terms, vectorized fn)], dim, freq_hint) of every entry."""
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
    old = _HAND_HINTS[name]
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


def test_array_d_columns_match_their_column_signals():
    def d_array(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros((2, 2) + t.shape)
        out[0, 0] = np.sin(t)
        out[1, 1] = 1.0
        return out

    def column_signal(j):
        def h(t):
            return np.stack([np.sin(t), np.zeros_like(t)] if j == 0
                            else [np.zeros_like(t), np.ones_like(t)])
        return h

    grid = np.arange(0.0, 3.0)
    pert = ev.PerturbationSpec.factored(d_array, lambda x: x, 2,
                                        freq_hint=1.0)
    cols = pert.columns()
    assert np.array_equal(cols[0](0.3), [math.sin(0.3), 0.0])
    for j, col in enumerate(cols):
        got, want = (ev.diminishing_profile(h, grid, quad_tol=1e-10,
                                            freq_hint=1.0).values
                     for h in (col, column_signal(j)))
        assert np.array_equal(got, want)


def _recording(fn, seen):
    def h(t):
        seen.append(t)
        return fn(t)
    return h


@pytest.mark.parametrize("run", ["window_integral_sup",
                                 "diminishing_profile", "classify"])
def test_a_time_signal_is_only_called_on_arrays_of_times(run):
    # one call per evaluation on the whole 1-d array: no probe at one time
    seen = []
    if run == "classify":
        pert = ev.make_perturbation("vec_cos_sin_exp")
        cols = pert.columns()
        pert.columns = lambda: [_recording(c, seen) for c in cols]
        ev.classify(pert, 1.0, 4.0, profile_grid=[0.0, 1.0])
    else:
        h = _recording(np.sin, seen)
        if run == "window_integral_sup":
            ev.window_integral_sup(h, 0.5)
        else:
            ev.diminishing_profile(h, [0.0, 1.0])
    assert seen
    assert all(isinstance(t, np.ndarray) and t.ndim == 1 for t in seen)


@pytest.mark.parametrize("h, match", [
    (math.sin, r"^time signal: the callable must take a 1-d array of times; "
     r"on one it raised TypeError: "),
    (lambda t: np.array([1.0, 0.0]),
     r"expected shape \(N,\) or \(dim, N\) on N = \d+ times, got \(2,\)"),
], ids=["scalar_only", "one_time_shape"])
def test_a_signal_that_does_not_take_arrays_raises(h, match):
    # a signal is called once on the array of times; there is no
    # one-time-at-a-time fallback to hide a scalar-only callable, whose
    # TypeError was raised bare
    with pytest.raises(ev.ShapeError, match=match) as exc:
        ev.window_integral_sup(h, 0.0)
    assert (h is math.sin) == isinstance(exc.value.__cause__, TypeError)


@pytest.mark.parametrize("run", ["columns", "window_integral_sup"])
def test_a_complex_signal_raises_shape_error(run):
    # its values were cast to float with a ComplexWarning, dropping the
    # imaginary part; a spec's column names its w
    w = lambda t: np.exp(1j * np.asarray(t, dtype=float))
    name = r"w\(t\)" if run == "columns" else "time signal"
    with pytest.raises(ev.ShapeError, match=rf"^{name}: expected real "
                       r"values, got values of dtype complex128$"):
        if run == "columns":
            ev.PerturbationSpec.from_signal(w, 1).columns()[0](
                np.linspace(0.0, 1.0, 5))
        else:
            ev.window_integral_sup(w, 0.0)


def _sign_patterns(rng, count, width):
    # rows of signs with runs of zeros, leading zeros and all-zero rows
    for _ in range(count):
        dim_ = int(rng.integers(1, 4))
        runs = rng.integers(1, 40, size=(dim_, width))
        vals = rng.choice([-1.0, 0.0, 1.0], size=(dim_, width))
        rows = [np.repeat(v, r)[:width] for v, r in zip(vals, runs)]
        pattern = np.array(rows)
        pattern[:, :int(rng.integers(0, 60))] = 0.0
        if rng.random() < 0.2:
            pattern[int(rng.integers(dim_))] = 0.0
        yield pattern * rng.uniform(0.5, 2.0, pattern.shape)


def test_crossing_count_matches_the_per_sample_loop(rng):
    # the forward fill of the last nonzero sign counts what the loop does
    for pattern in _sign_patterns(rng, 200, 2048):
        got = dim._crossing_count(lambda ts, p=pattern: p, 0.0, 1.0)
        assert got == crossing_count_loop(pattern)


def test_a_signal_failing_on_arrays_for_another_reason_raises():
    # an error a signal raises on the array of times is its own
    def h(t):
        if isinstance(t, np.ndarray):
            raise RuntimeError("array evaluation failed")
        return math.sin(t)

    with pytest.raises(RuntimeError, match="array evaluation failed"):
        dim.SignalAdapter(h)(np.linspace(0.0, 1.0, 5))
