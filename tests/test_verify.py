import functools

import numpy as np
import pytest

import evuas as ev
from evuas.verify import _sweep

A_H = [[-1.0, 2.0], [0.0, -1.5]]


def _decay_factory(horizon=12.0, tol=1e-8):
    return ev.make_error_factory(ev.build_hurwitz(A_H), None, horizon,
                                 tol=tol)


def test_unforced_error_system_plainly_uniformly_stable():
    rep = ev.verify_evuas(_decay_factory(), delta0=0.5,
                          t0_grid=[0.0, 1.0, 2.0], eps_levels=[0.6, 0.3],
                          horizon=12.0, samples=6, seed=7, dim=2)
    assert rep.evuas == "pass"
    assert all(row["alpha"] == 0.0 for row in rep.evus_table)
    assert rep.alpha0 == 0.0


def test_report_tables_monotone():
    rep = ev.verify_evuas(_decay_factory(), delta0=0.5,
                          t0_grid=[0.0, 1.0, 2.0],
                          eps_levels=[0.8, 0.4, 0.2], horizon=12.0,
                          samples=6, seed=7, dim=2)
    deltas = [row["delta"] for row in rep.evus_table]
    assert all(b <= a for a, b in zip(deltas, deltas[1:]))
    ts = [row["T"] for row in rep.evua_table]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


def test_constant_forcing_fails_attraction_with_witnesses():
    pert = ev.make_perturbation("const_e1", dim=2)
    fac = ev.make_error_factory(ev.build_hurwitz(A_H), pert, 12.0, tol=1e-8)
    rep = ev.verify_evuas(fac, delta0=0.5, t0_grid=[0.0, 1.0, 2.0],
                          eps_levels=[0.5, 0.25], horizon=12.0, samples=6,
                          seed=7, dim=2)
    assert rep.evua == "fail"
    assert rep.evuas == "fail"
    # witnesses sit near the forced equilibrium (1, 0)
    evua_wit = [w for w in rep.witnesses if w["kind"] == "evua"]
    assert evua_wit
    assert evua_wit[0]["value"] == pytest.approx(1.0, abs=0.05)


def test_witnesses_replay():
    pert = ev.make_perturbation("const_e1", dim=2)
    fac = ev.make_error_factory(ev.build_hurwitz(A_H), pert, 12.0, tol=1e-8)
    rep = ev.verify_evuas(fac, delta0=0.5, t0_grid=[0.0, 1.0],
                          eps_levels=[0.5], horizon=12.0, samples=4, seed=9,
                          dim=2)
    w = rep.witnesses[0]
    traj = fac(w["t0"], np.asarray(w["x0"]))
    idx = int(np.argmin(np.abs(traj.times - w["t"])))
    assert traj.norms()[idx] == pytest.approx(w["value"], rel=1e-6)
    assert traj.norms()[idx] >= w["eps"]


def test_zero_dynamics_tiny_ball_trivially_stable():
    def fac(t0, x0):
        return ev.integrate(lambda t, x: np.zeros_like(x), t0, x0,
                            t0 + 5.0, tol=1e-9)
    rep = ev.verify_evuas(fac, delta0=1e-9, t0_grid=[0.0, 1.0],
                          eps_levels=[0.1, 0.01], horizon=5.0, samples=4,
                          seed=1, dim=2)
    assert rep.evuas == "pass"
    assert all(row["T"] == 0.0 for row in rep.evua_table)


def test_replay_determinism():
    kwargs = dict(delta0=0.5, t0_grid=[0.0, 1.0], eps_levels=[0.5, 0.25],
                  horizon=12.0, samples=5, seed=42, dim=2)
    a = ev.verify_evuas(_decay_factory(), **kwargs)
    b = ev.verify_evuas(_decay_factory(), **kwargs)
    assert a.to_dict() == b.to_dict()


def test_truncated_onset_search_is_inconclusive_not_fail():
    # scalar loop forced by cos(e^t): a level just out of reach for the
    # tested onsets must come back inconclusive (the trajectories decay,
    # only the start-time grid is too short), never a hard fail
    fac = ev.make_error_factory(ev.default_hurwitz(1),
                                ev.make_perturbation("cos_exp"),
                                horizon=6.0, tol=1e-7)
    rep = ev.verify_evuas(fac, delta0=0.5, t0_grid=[0.0, 1.0, 2.0],
                          eps_levels=[0.5, 0.25], horizon=6.0, samples=3,
                          seed=7, dim=1)
    assert rep.evus_table[0]["verdict"] == "pass"
    assert rep.evus_table[1]["verdict"] == "inconclusive"
    assert rep.evuas == "inconclusive"
    # a reachable level passes with a strictly positive onset
    rep2 = ev.verify_evuas(fac, delta0=0.5, t0_grid=[0.0, 1.0, 2.0],
                           eps_levels=[0.5, 0.3], horizon=6.0, samples=3,
                           seed=7, dim=1)
    assert rep2.evuas == "pass"
    assert rep2.evus_table[1]["alpha"] > 0.0


def test_sim_failures_cap_the_verdict():
    def flaky(t0, x0):
        if t0 >= 2.0:
            raise ev.IntegrationError("backend hiccup")
        return ev.integrate(lambda t, x: -x, t0, x0, t0 + 8.0, tol=1e-8)
    rep = ev.verify_evuas(flaky, delta0=0.5, t0_grid=[0.0, 2.0],
                          eps_levels=[0.6], horizon=8.0, samples=3, seed=0,
                          dim=1)
    assert rep.sim_failures
    assert rep.evuas in ("inconclusive", "fail")


def test_factory_programming_errors_propagate():
    # only the package's runtime failures become data; a type bug does not
    # turn into an inconclusive verdict or a zero radius
    def broken(t0, x0):
        raise TypeError("factory bug")
    with pytest.raises(TypeError, match="factory bug"):
        ev.verify_evuas(broken, delta0=0.5, t0_grid=[0.0], eps_levels=[0.6],
                        horizon=8.0, samples=3, seed=0, dim=1)
    with pytest.raises(TypeError, match="factory bug"):
        ev.estimate_delta_of_eps(broken, eps=0.1, t0=0.0, dim=1)


def _tuple_factory(t0, x0):
    # returns the run's fields, not the Trajectory
    traj = ev.integrate(lambda t, x: -x, t0, x0, t0 + 8.0, tol=1e-8)
    return traj.times, traj.states


def test_a_factory_returning_no_trajectory_raises_naming_it():
    # a bare AttributeError ('tuple' object has no attribute 'times') was
    # neither typed nor recorded
    match = (r"^verify factory _tuple_factory returned tuple, not a "
             r"Trajectory$")
    with pytest.raises(TypeError, match=match):
        ev.verify_evuas(_tuple_factory, delta0=0.5, t0_grid=[0.0],
                        eps_levels=[0.6], horizon=8.0, samples=3, seed=0,
                        dim=1)
    with pytest.raises(TypeError, match=match):
        ev.estimate_delta_of_eps(_tuple_factory, eps=0.1, t0=0.0, dim=1)


def test_failed_witness_replay_is_a_sim_failure():
    # the batch runs, but the witness sample's own one-row run fails: the
    # failure is recorded against that sample and no witness is reported
    pert = ev.make_perturbation("const_e1", dim=2)
    fac = ev.make_error_factory(ev.build_hurwitz(A_H), pert, 12.0, tol=1e-8)

    def batch_only(t0, x0):
        if len(x0) == 1:
            raise ev.IntegrationError("single-state backend down")
        return fac(t0, x0)
    rep = ev.verify_evuas(batch_only, delta0=0.5, t0_grid=[0.0, 1.0],
                          eps_levels=[0.5], horizon=12.0, samples=4, seed=9,
                          dim=2)
    assert rep.evuas == "fail"
    assert rep.samples == 2 * 3 * 4
    assert rep.witnesses == []
    assert rep.sim_failures
    assert all(f["error"] == "single-state backend down"
               for f in rep.sim_failures)
    good = ev.verify_evuas(fac, delta0=0.5, t0_grid=[0.0, 1.0],
                           eps_levels=[0.5], horizon=12.0, samples=4, seed=9,
                           dim=2)
    assert [(f["t0"], f["x0"]) for f in rep.sim_failures] == \
        [(w["t0"], w["x0"]) for w in good.witnesses]


@pytest.mark.parametrize("run", ["stack", "alone"])
def test_a_run_short_of_the_horizon_breaks_the_factory_contract(run):
    # judged on 0.5-long windows, the levels of a 6.0 horizon would pass;
    # the stack and the one-row rerun of its samples are both checked
    short = ev.make_error_factory(ev.default_hurwitz(1),
                                  ev.make_perturbation("cos_exp"), 0.5,
                                  tol=1e-6)
    sim = short
    if run == "alone":
        def sim(t0, x0):
            if len(x0) > 1:
                raise ev.IntegrationError("stack backend down")
            return short(t0, x0)
    with pytest.raises(ValueError, match=r"^a factory run from t0=0\.0 "
                       r"spans \[0\.0, 0\.5\], which does not cover the "
                       r"horizon 6\.0$"):
        ev.verify_evuas(sim, delta0=0.5, t0_grid=[0.0, 1.0],
                        eps_levels=[0.5, 0.25], horizon=6.0, samples=3,
                        seed=7, dim=1)


def _blowup_factory(t0, x0):
    # x' = x^2: positive x0 blow up at t0 + 1/x0, inside the window for
    # x0 >= 1/8; negative x0 decay
    return ev.integrate(lambda t, x: x * x, t0, x0, t0 + 8.0, tol=1e-8)


def test_batch_failures_are_attributed_per_sample():
    t0_grid = [0.0, 3.0]
    rep = ev.verify_evuas(_blowup_factory, delta0=1.0, t0_grid=t0_grid,
                          eps_levels=[2.0], horizon=8.0, samples=4, seed=5,
                          dim=1)
    dirs = np.random.default_rng(5).standard_normal((4, 1))
    x0s = [r * float(np.sign(d[0])) for r in (1.0, 0.5, 0.25) for d in dirs]
    positive = [x for x in x0s if x > 0]
    assert positive and len(positive) < len(x0s)
    assert sorted((f["t0"], f["x0"][0]) for f in rep.sim_failures) == \
        sorted((t0, x) for t0 in t0_grid for x in positive)
    assert rep.samples == len(t0_grid) * (len(x0s) - len(positive))
    # every sample that ran is in the tables: the decaying ones pass
    assert rep.evus_table[0]["verdict"] == "pass"
    assert rep.evuas == "inconclusive"


def _stacks_only(sim):
    # a factory that takes (N, dim) stacks and nothing else
    def stacks(t0, x0):
        if np.ndim(x0) != 2:
            raise TypeError(f"expected an (N, dim) stack, got {np.shape(x0)}")
        return sim(t0, x0)
    return stacks


@pytest.mark.parametrize("case", ["witnesses", "sim_failures"])
def test_a_factory_of_stacks_only_gets_the_same_report(case):
    # a witness and the rerun of a failed stack run their lone sample as a
    # one-row stack, with the figures of the one-state run
    if case == "witnesses":
        sim = ev.make_error_factory(ev.build_hurwitz(A_H),
                                    ev.make_perturbation("const_e1", dim=2),
                                    12.0, tol=1e-8)
        kwargs = dict(delta0=0.5, t0_grid=[0.0, 1.0], eps_levels=[0.5],
                      horizon=12.0, samples=4, seed=9, dim=2)
    else:
        sim = _blowup_factory
        kwargs = dict(delta0=1.0, t0_grid=[0.0, 3.0], eps_levels=[2.0],
                      horizon=8.0, samples=4, seed=5, dim=1)
    want = ev.verify_evuas(sim, **kwargs).to_dict()
    assert want[case]
    assert ev.verify_evuas(_stacks_only(sim), **kwargs).to_dict() == want


def test_closed_loop_batch_failure_records_only_its_sample():
    # x1 + 2 x2 = 3 at the second start: no feedback exists there, so the
    # batch fails and its rows run again one at a time
    model = ev.make_model("tanh")
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    sim = ev.make_closed_loop_factory(model, ctrl, None, 2.0)
    x0s = np.array([[0.1, 0.0], [3.0, 0.0], [-0.2, 0.1]])
    with pytest.raises(ev.ControllerEvaluationError):
        sim(0.5, x0s)
    failures = []
    done = _sweep(sim, 0.5, x0s, 2.0, "euclidean", failures)
    assert [(f["t0"], f["x0"]) for f in failures] == [(0.5, [3.0, 0.0])]
    assert [i for i, _, _ in done] == [0, 2]
    for i, times, norms in done:
        alone = sim(0.5, x0s[i])
        assert np.array_equal(times, alone.times)
        assert np.array_equal(norms, alone.norms())


def _serial_delta_of_eps(sim, eps, t0, dim, directions, seed, iters):
    # the bisection of estimate_delta_of_eps, one direction per factory call
    dirs = np.random.default_rng(seed).standard_normal((directions, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def passes(level):
        for d in dirs:
            try:
                norms = sim(t0, level * d).norms()
            except ev.IntegrationError:
                return False
            v80 = float(norms[int(0.8 * (norms.size - 1))])
            if np.max(norms) >= eps or norms[-1] > 1.5 * max(v80, 1e-300):
                return False
        return True

    lo, hi, best = 0.0, eps, 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            best = lo = mid
        else:
            hi = mid
    return best


@pytest.mark.parametrize("eps", [0.5, 0.05])
def test_batched_delta_estimate_matches_serial_bisection(eps):
    kwargs = dict(eps=eps, t0=0.0, dim=1, directions=4, seed=5, iters=16)
    want = _serial_delta_of_eps(_blowup_factory, **kwargs)
    assert 0.0 < want < eps
    assert ev.estimate_delta_of_eps(_blowup_factory, **kwargs) == want


@pytest.mark.slow
def test_bounded_oscillating_perturbation_is_eventually_stable():
    # the origin is not a solution here: stability only binds for late
    # enough start times, so the small level needs a strictly positive onset
    pert = ev.make_perturbation("example1_bounded")
    fac = ev.make_error_factory(ev.build_hurwitz(A_H), pert, 5.0, tol=1e-6)
    rep = ev.verify_evuas(fac, delta0=0.25, t0_grid=[0.0, 1.0, 2.0, 3.0],
                          eps_levels=[0.8, 0.4], horizon=5.0, samples=4,
                          seed=3, dim=2)
    assert rep.evuas == "pass"
    small = rep.evus_table[-1]
    assert small["eps"] == 0.4
    assert small["alpha"] > 0.0


# --- decay envelopes

def test_envelope_exact_exponential():
    def fac(t0, x0):
        return ev.integrate(lambda t, x: -x, t0, x0, t0 + 10.0, tol=1e-10)
    trajs = [fac(0.0, np.array([r])) for r in (1.0, 0.5, 0.25)]
    env = ev.fit_kl_envelope(trajs)
    assert env.mu == pytest.approx(1.0, abs=0.01)
    assert env.kappa == pytest.approx(1.0, abs=0.01)


def test_envelope_example_matrix():
    fac = _decay_factory()
    trajs = [fac(0.0, np.array(x))
             for x in ([0.3, 0.4], [-0.5, 0.1], [0.2, -0.3])]
    env = ev.fit_kl_envelope(trajs)
    assert env.kappa >= 1.0
    assert env.mu == pytest.approx(1.0, abs=0.1)


def test_envelope_soundness_on_fit_set():
    fac = _decay_factory()
    trajs = [fac(0.0, np.array(x)) for x in ([0.3, 0.4], [-0.5, 0.1])]
    env = ev.fit_kl_envelope(trajs)
    for traj in trajs:
        norms = traj.norms()
        bound = env.bound(norms[0], traj.times - traj.times[0])
        assert np.all(norms <= bound * (1.0 + env.slack) + 1e-14)


def test_envelope_rejects_non_decaying():
    traj = ev.integrate(lambda t, x: np.zeros_like(x), 0.0,
                        np.array([2.0]), 5.0, tol=1e-8)
    with pytest.raises(ev.EnvelopeFitError) as exc:
        ev.fit_kl_envelope([traj])
    assert exc.value.mu <= 0.0


def test_envelope_needs_nonzero_initial_state():
    traj = ev.integrate(lambda t, x: -x, 0.0, np.array([0.0]), 1.0, tol=1e-8)
    with pytest.raises(ValueError):
        ev.fit_kl_envelope([traj])


def test_envelope_rejects_a_batch_trajectory():
    batch = _decay_factory()(0.0, np.array([[0.3, 0.4], [-0.5, 0.1]]))
    with pytest.raises(ev.ShapeError, match=r"\(T, dim\)"):
        ev.fit_kl_envelope([batch])


# --- delta(eps) estimation

@pytest.mark.parametrize("call", [
    pytest.param(lambda sim: ev.estimate_delta_of_eps(
        sim, eps=np.nan, t0=0.0, dim=1), id="delta_eps_nan"),
    pytest.param(lambda sim: ev.estimate_delta_of_eps(
        sim, eps=np.inf, t0=0.0, dim=1), id="delta_eps_inf"),
    pytest.param(lambda sim: ev.verify_evuas(
        sim, delta0=0.5, t0_grid=[0.0], eps_levels=[0.5, np.nan],
        horizon=5.0, samples=1, dim=1), id="verify_eps_levels_nan")])
def test_non_finite_eps_is_rejected_before_any_run(call):
    # a NaN or infinite level used to come back as a delta of 0.0
    def never_called(t0, x0):
        raise AssertionError("the factory ran")
    with pytest.raises(ValueError, match="^eps(_levels)? must be positive"):
        call(never_called)


def test_a_negative_start_time_is_rejected_before_any_run():
    # every onset is >= 0: a sample started before 0 ran, counted in
    # samples, and no verdict judged it
    def never_called(t0, x0):
        raise AssertionError("the factory ran")
    with pytest.raises(ValueError, match="^t0_grid must hold non-negative "
                                         "start times, got -1.0$"):
        ev.verify_evuas(never_called, delta0=0.5, t0_grid=[-1.0, 0.0, 1.0],
                        eps_levels=[0.5], horizon=5.0, samples=1, dim=1)


def test_a_delta_estimate_tests_at_least_one_level():
    # iters=0 used to return 0.0 without running a level
    def never_called(t0, x0):
        raise AssertionError("the factory ran")
    with pytest.raises(ValueError, match="^iters must be >= 1, got 0$"):
        ev.estimate_delta_of_eps(never_called, eps=0.5, t0=0.0, dim=1,
                                 iters=0)


def _sized_sweep(name):
    def never_called(t0, x0):
        raise AssertionError("the factory ran")
    if name == "verify_evuas":
        return functools.partial(
            ev.verify_evuas, never_called, delta0=0.5, t0_grid=[0.0],
            eps_levels=[0.5], horizon=5.0, samples=1, dim=1)
    return functools.partial(ev.estimate_delta_of_eps, never_called,
                             eps=0.5, t0=0.0, dim=1)


@pytest.mark.parametrize("sweep, arg, value", [
    ("verify_evuas", "samples", 2.5),
    ("verify_evuas", "dim", 0),
    ("verify_evuas", "dim", None),
    ("estimate_delta_of_eps", "directions", 2.5),
    ("estimate_delta_of_eps", "iters", 2.5),
    ("estimate_delta_of_eps", "dim", 0),
])
def test_a_sweep_size_is_a_positive_integer(sweep, arg, value):
    # 2.5 used to fail inside numpy with a TypeError, and dim=0 inside the
    # factory's shape check
    with pytest.raises(ValueError, match=f"^{arg}"):
        _sized_sweep(sweep)(**{arg: value})


def test_empty_eps_levels_are_rejected_before_any_run():
    # no level used to make a vacuous "pass" with empty tables
    def never_called(t0, x0):
        raise AssertionError("the factory ran")
    with pytest.raises(ValueError, match="^eps_levels must .* not empty"):
        ev.verify_evuas(never_called, delta0=0.5, t0_grid=[0.0],
                        eps_levels=[], horizon=5.0, samples=1, dim=1)


@pytest.mark.parametrize("kwargs, name", [
    pytest.param({"t0": np.nan}, "t0", id="t0_nan"),
    pytest.param({"t0": np.inf}, "t0", id="t0_inf"),
    pytest.param({"t0": 0.0, "directions": 0}, "directions",
                 id="no_directions")])
def test_delta_of_eps_checks_its_inputs_before_any_run(kwargs, name):
    def never_called(t0, x0):
        raise AssertionError("the factory ran")
    with pytest.raises(ValueError, match=f"^{name} must"):
        ev.estimate_delta_of_eps(never_called, eps=0.5, dim=1, **kwargs)


def test_delta_of_eps_rejects_a_run_that_starts_late():
    # a run from t0 + 1 used to be judged as if it started at t0
    late = _decay_factory()

    def sim(t0, x0):
        return late(t0 + 1.0, x0)
    with pytest.raises(ValueError, match=r"^a factory run from t0=0\.0 "
                       r"spans \[1\.0, 13\.0\]"):
        ev.estimate_delta_of_eps(sim, eps=0.5, t0=0.0, dim=2)


def test_delta_for_monotone_scalar_decay():
    def fac(t0, x0):
        return ev.integrate(lambda t, x: -x, t0, x0, t0 + 10.0, tol=1e-9)
    d = ev.estimate_delta_of_eps(fac, eps=0.1, t0=0.0, dim=1)
    assert 0.099 <= d < 0.1


def test_delta_for_example_matrix():
    fac = _decay_factory()
    d = ev.estimate_delta_of_eps(fac, eps=1.0, t0=0.0, dim=2, seed=11)
    trajs = [fac(0.0, np.array(x)) for x in ([0.3, 0.4], [-0.5, 0.1])]
    env = ev.fit_kl_envelope(trajs)
    assert d <= 1.0
    assert d >= 1.0 / env.kappa


def test_delta_zero_for_unstable_dynamics():
    def fac(t0, x0):
        return ev.integrate(lambda t, x: +x, t0, x0, t0 + 5.0, tol=1e-9)
    assert ev.estimate_delta_of_eps(fac, eps=0.5, t0=0.0, dim=1) == 0.0


def test_report_serializes_to_json():
    import json
    rep = ev.verify_evuas(_decay_factory(), delta0=0.5, t0_grid=[0.0],
                          eps_levels=[0.5], horizon=12.0, samples=3, seed=0,
                          dim=2)
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    assert '"evuas": "pass"' in blob


# --- whole reports on closed-form norms: no integration, tables by hand

def _law_factory(law, horizon, step=0.5):
    """sim(t0, x0) whose states are x0 / |x0| * law(t0, |x0|, s) on the
    stored grid t0 + s, s = 0, step, ..., horizon."""
    s = np.arange(0.0, horizon + step / 2.0, step)

    def sim(t0, x0):
        x0 = np.asarray(x0, dtype=float)
        r = np.linalg.norm(x0, axis=-1, keepdims=True)
        s_col = s.reshape(s.shape + (1,) * x0.ndim)
        return ev.Trajectory(times=t0 + s, states=law(t0, r, s_col) * x0 / r)
    return sim


def _report(sim, eps_levels, horizon, t0_grid=(0.0, 1.0, 2.0)):
    # seed 0 draws a positive direction, so the samples are 1, 0.5, 0.25
    return ev.verify_evuas(sim, delta0=1.0, t0_grid=list(t0_grid),
                           eps_levels=eps_levels, horizon=horizon,
                           samples=1, seed=0, dim=1).to_dict()


def test_evus_onset_and_radius_carry_over_and_evua_t_is_on_the_grid():
    # peak r * g(t0) at s = 0, halving per unit of s.  Peaks by (t0, r):
    #   t0 = 0: 8, 4, 2;  t0 = 1: 2, 1, 0.5;  t0 = 2: 0.25, 0.125, 0.0625
    # eps 1.5: nothing passes at onset 0; onset 1 passes up to r = 0.5.
    # eps 0.4: onset 1 fails at r <= 0.5; onset 2 passes at the cap 0.5,
    #   though r = 1 (peak 0.25) would pass there without it.
    # EVUA at onset 0: the peak-8 sample is last at or above 1.5 at s = 2
    #   and above 0.4 at s = 4 (crossings 2.415 and 4.32), so T = 2.5, 4.5.
    gain = {0.0: 8.0, 1.0: 2.0, 2.0: 0.25}
    rep = _report(_law_factory(lambda t0, r, s: r * gain[t0] * 2.0 ** -s,
                               6.0), [1.5, 0.4], 6.0)
    assert rep["evus_table"] == [
        {"eps": 1.5, "delta": 0.5, "alpha": 1.0, "verdict": "pass"},
        {"eps": 0.4, "delta": 0.5, "alpha": 2.0, "verdict": "pass"}]
    assert rep["evua_table"] == [
        {"eps": 1.5, "T": 2.5, "verdict": "pass"},
        {"eps": 0.4, "T": 4.5, "verdict": "pass"}]
    assert rep["rows"] == [
        {"eps": 1.5, "delta": 0.5, "alpha": 1.0, "T": 2.5, "verdict": "pass"},
        {"eps": 0.4, "delta": 0.5, "alpha": 2.0, "T": 4.5, "verdict": "pass"}]
    assert (rep["evus"], rep["evua"], rep["evuas"]) == ("pass",) * 3
    assert (rep["alpha0"], rep["samples"]) == (0.0, 9)
    assert rep["witnesses"] == rep["sim_failures"] == []


def test_evua_failures_are_classified_fail_and_inconclusive():
    # r = 1 decays as 4 * 2^(-s/3) to 1.0 at s = 6 (a decreasing tail);
    # r = 0.5 and 0.25 sit at 0.3 (a flat tail).  Classified at onset 2:
    # eps 0.5 leaves only the decaying sample unsettled -> inconclusive;
    # eps 0.2 leaves the flat ones too -> fail.  EVUS passes eps 0.5 at
    # onset 0 with r <= 0.5 and finds no radius for 0.2: the flat 0.3
    # tails end above it -> fail.
    def law(t0, r, s):
        return np.where(r > 0.75, 4.0 * 2.0 ** (-s / 3.0), 0.3)
    rep = _report(_law_factory(law, 6.0), [0.5, 0.2], 6.0)
    assert rep["evus_table"] == [
        {"eps": 0.5, "delta": 0.5, "alpha": 0.0, "verdict": "pass"},
        {"eps": 0.2, "delta": None, "alpha": None, "verdict": "fail"}]
    assert rep["evua_table"] == [
        {"eps": 0.5, "T": None, "verdict": "inconclusive"},
        {"eps": 0.2, "T": None, "verdict": "fail"}]
    assert rep["rows"] == [
        {"eps": 0.5, "delta": 0.5, "alpha": 0.0, "T": None,
         "verdict": "inconclusive"},
        {"eps": 0.2, "delta": None, "alpha": None, "T": None,
         "verdict": "fail"}]
    assert (rep["evus"], rep["evua"], rep["evuas"]) == ("fail",) * 3
    assert (rep["alpha0"], rep["samples"]) == (None, 9)
    assert rep["witnesses"] == [
        {"kind": "evus", "eps": 0.2, "t0": 0.0, "x0": [1.0], "t": 0.0,
         "value": 4.0},
        {"kind": "evua", "eps": 0.5, "t0": 2.0, "x0": [1.0], "t": 8.0,
         "value": 1.0},
        {"kind": "evua", "eps": 0.2, "t0": 2.0, "x0": [0.5], "t": 8.0,
         "value": 0.3}]
    assert rep["sim_failures"] == []


def _down_from(t_fail):
    """Constant norm 1; an IntegrationError for every t0 >= t_fail."""
    flat = _law_factory(lambda t0, r, s: np.ones_like(s * r), 5.0)

    def sim(t0, x0):
        if t0 >= t_fail:
            raise ev.IntegrationError("down")
        return flat(t0, x0)
    return sim


def test_evua_is_classified_at_the_largest_onset_that_has_samples():
    # every run from t0 = 2 fails, so onset 2 has no samples: the samples
    # from t0 = 1, which never settle and do not decrease, decide
    rep = _report(_down_from(2.0), [0.5, 0.25], 5.0)
    assert rep["evua_table"] == [
        {"eps": 0.5, "T": None, "verdict": "fail"},
        {"eps": 0.25, "T": None, "verdict": "fail"}]
    assert [row["verdict"] for row in rep["evus_table"]] == ["fail"] * 2
    assert (rep["evus"], rep["evua"], rep["evuas"]) == ("fail",) * 3
    assert rep["samples"] == 6
    assert [(w["kind"], w["t0"], w["t"]) for w in rep["witnesses"]] == \
        [("evus", 0.0, 0.0)] * 2 + [("evua", 1.0, 6.0)] * 2
    assert [(f["t0"], f["x0"]) for f in rep["sim_failures"]] == \
        [(2.0, [1.0]), (2.0, [0.5]), (2.0, [0.25])]


def test_a_sweep_with_no_samples_is_inconclusive_at_every_level():
    rep = _report(_down_from(0.0), [0.5, 0.25], 5.0)
    assert rep["evus_table"] == [
        {"eps": 0.5, "delta": None, "alpha": None, "verdict": "inconclusive"},
        {"eps": 0.25, "delta": None, "alpha": None,
         "verdict": "inconclusive"}]
    assert rep["evua_table"] == [
        {"eps": 0.5, "T": None, "verdict": "inconclusive"},
        {"eps": 0.25, "T": None, "verdict": "inconclusive"}]
    assert (rep["evus"], rep["evua"], rep["evuas"]) == ("inconclusive",) * 3
    assert (rep["samples"], rep["witnesses"]) == (0, [])
    assert len(rep["sim_failures"]) == 9


@pytest.mark.parametrize("bad", [{"delta0": -0.5}, {"delta0": 0.0},
                                 {"delta0": np.nan}, {"delta0": np.inf},
                                 {"horizon": 0.0}, {"horizon": np.nan},
                                 {"horizon": np.inf}])
def test_radius_and_horizon_must_be_positive_and_finite(bad):
    def never_called(t0, x0):
        raise AssertionError("the factory ran")
    kwargs = dict(delta0=0.5, t0_grid=[0.0], eps_levels=[0.5], horizon=5.0,
                  samples=1, dim=1)
    with pytest.raises(ValueError, match="positive and finite"):
        ev.verify_evuas(never_called, **{**kwargs, **bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_start_time_is_rejected_before_any_run(bad):
    # a NaN start time used to reach integrate as "t_end=nan must exceed
    # t0=nan", naming neither the argument nor the entry
    def never_called(t0, x0):
        raise AssertionError("the factory ran")
    with pytest.raises(ValueError, match=f"^t0_grid must hold finite start "
                                         f"times, got {bad}$"):
        ev.verify_evuas(never_called, delta0=0.5, t0_grid=[0.0, bad],
                        eps_levels=[0.5], horizon=5.0, samples=1, dim=1)
