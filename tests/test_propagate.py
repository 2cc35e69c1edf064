"""The exact propagator for error systems under chirp-form forcing.

Between sample times it steps e' = A e + w(t) by e^{A h} and a Levin
collocation integral; these tests hold it against scipy's DOP853 at a
tight tolerance, the matrix exponential and the superposition identity.
"""

import importlib

import numpy as np
import pytest

import evuas as ev
from evuas.diminishing import ChirpTerm
from evuas.integrate import propagate_linear

from oracles import forced_linear_reference, linear_trajectory

# the module: the package attribute evuas.integrate is the function
integrate_module = importlib.import_module("evuas.integrate")

A_EX1 = np.array([[-1.0, 2.0], [0.0, -1.5]])
JORDAN = np.array([[-1.0, 1.0], [0.0, -1.0]])
A_LIN3 = np.array([[-0.5, 2.0, 0.0], [-2.0, -0.5, 1.0], [0.0, -1.0, -1.0]])


@pytest.mark.parametrize("name, a, t_end, samples", [
    ("example1_unbounded", A_EX1, 3.0, 301),
    ("cos_exp", [[-1.0]], 8.0, 81),
    ("vec_cos_sin_exp", A_EX1, 8.0, 81),
    ("const_e1", A_EX1, 5.0, 11),
    ("example1_unbounded", JORDAN, 3.0, 31),
    # three samples: both intervals fail the residual check and are halved
    ("t_cos_t4", [[-1.0]], 5.0, 3),
], ids=["example1_unbounded", "cos_exp", "vec_cos_sin_exp", "const_e1",
        "jordan_block", "coarse_t_cos_t4"])
def test_matches_dop853(name, a, t_end, samples):
    pert = ev.make_perturbation(name)
    x0 = np.array([-1.0, 1.5])[:pert.dim]
    ts = np.linspace(0.0, t_end, samples)
    traj = propagate_linear(a, pert.terms, 0.0, x0, t_end, ts)
    ref = forced_linear_reference(a, pert.w, x0, ts)
    assert np.array_equal(traj.times, ts)
    assert np.max(np.abs(traj.states - ref)) <= 1e-10
    d = traj.diagnostics
    if name == "t_cos_t4":
        assert d["n_rejected"] > 0
    assert d["n_accepted"] == samples - 1 + d["n_rejected"]


def test_zero_forcing_is_the_matrix_exponential():
    ts = np.linspace(0.5, 6.0, 56)
    x0 = np.array([1.0, -2.0, 0.5])
    traj = propagate_linear(A_LIN3, (), 0.5, x0, 6.0, ts)
    assert np.max(np.abs(traj.states - linear_trajectory(A_LIN3, x0, ts))) \
        <= 1e-12


def test_batch_rows_obey_superposition():
    # e(t; e0) = expm(A (t - t0)) e0 + e(t; 0), with e(t; 0) in the batch
    terms = ev.make_perturbation("vec_t_cos_sin_t4").terms
    e0s = np.vstack([np.zeros(2), np.linspace(-0.8, 0.6, 6).reshape(3, 2)])
    ts = np.linspace(1.0, 4.0, 121)
    traj = propagate_linear(JORDAN, terms, 1.0, e0s, 4.0, ts)
    assert traj.states.shape == (ts.size, 4, 2)
    for j in range(1, 4):
        free = linear_trajectory(JORDAN, e0s[j], ts)
        assert np.max(np.abs(traj.states[:, j] - traj.states[:, 0] - free)) \
            <= 1e-12


def test_one_row_batch_is_the_single_run():
    terms = ev.make_perturbation("example1_unbounded").terms
    e0 = np.array([-1.0, 1.5])
    ts = np.linspace(0.0, 4.0, 201)
    alone = propagate_linear(A_EX1, terms, 0.0, e0, 4.0, ts)
    batch = propagate_linear(A_EX1, terms, 0.0, e0[None], 4.0, ts)
    assert batch.states.shape == (ts.size, 1, 2)
    assert np.array_equal(batch.states[:, 0], alone.states)
    assert batch.diagnostics == alone.diagnostics


def test_fine_grids_stay_exact():
    # on intervals short against A and the phase, collocation alone leaves
    # q nearly undetermined; the samples must not depend on the grid
    terms = ev.make_perturbation("example1_unbounded").terms
    fine = propagate_linear(A_EX1, terms, 0.0, [-1.0, 1.5], 1.0,
                            np.linspace(0.0, 1.0, 5001))
    coarse = propagate_linear(A_EX1, terms, 0.0, [-1.0, 1.5], 1.0,
                              np.linspace(0.0, 1.0, 11))
    assert np.max(np.abs(fine.states[::500] - coarse.states)) <= 1e-12


def test_an_empty_batch_is_rejected():
    # it used to come back as a (T, 0, 2) run
    with pytest.raises(ev.ShapeError, match=r"got \(0, 2\)"):
        propagate_linear(A_EX1, (), 0.0, np.zeros((0, 2)), 2.0, [1.0, 2.0])


def test_sample_contract_and_errors():
    ts = np.linspace(0.5, 2.0, 4)
    traj = propagate_linear(A_EX1, (), 0.0, [1.0, 0.0], 2.0, ts)
    assert traj.times[0] == 0.0 and traj.times.size == 5
    with pytest.raises(ValueError, match="increasing"):
        propagate_linear(A_EX1, (), 0.0, [1.0, 0.0], 2.0, ts[::-1])
    with pytest.raises(ValueError, match="exceed"):
        propagate_linear(A_EX1, (), 2.0, [1.0, 0.0], 1.0, ts)
    with pytest.raises(ev.ShapeError):
        propagate_linear(A_EX1, (), 0.0, [1.0, 0.0, 0.0], 2.0, ts)
    scalar = ev.make_perturbation("cos_exp")
    with pytest.raises(ev.ShapeError, match="chirp term"):
        propagate_linear(A_EX1, scalar.terms, 0.0, [1.0, 0.0], 2.0, ts)
    with pytest.raises(ev.ShapeError, match="chirp term"):
        ev.PerturbationSpec.from_signal(scalar.w, 2, terms=scalar.terms)
    with pytest.raises(ValueError, match="kind='time'"):
        ev.PerturbationSpec("zero", 1, terms=scalar.terms)
    # a forcing that overflows: the error carries the last finite sample
    blowup = (ChirpTerm((1.0, 0.0), lambda t: np.exp(400.0 * t)),)
    with pytest.raises(ev.IntegrationError) as exc, \
            np.errstate(over="ignore", invalid="ignore"):
        propagate_linear(A_EX1, blowup, 0.0, [1.0, 0.0], 2.0,
                         np.linspace(0.0, 2.0, 21))
    assert exc.value.reason == "non-finite"
    assert np.isfinite(exc.value.x_last).all()
    assert 1.5 <= exc.value.t_last < 2.0


def test_an_interval_that_never_passes_gives_up_at_its_start(monkeypatch):
    # a residual check that fails on every interval holding s = 1.3: each
    # halving leaves one failing half, until the last allowed halving
    levin = integrate_module._levin

    def failing_at(a, terms, lo, hi, decay):
        forced, ok = levin(a, terms, lo, hi, decay)
        return forced, ok & ~((lo < 1.3) & (1.3 < hi))

    monkeypatch.setattr(integrate_module, "_levin", failing_at)
    splits = integrate_module._LEVIN_MAX_SPLITS
    with pytest.raises(ev.IntegrationError,
                       match=f"after {splits} halvings") as exc:
        propagate_linear([[-1.0]], ev.make_perturbation("cos_exp").terms,
                         0.0, [1.0], 2.0, [1.0, 2.0])
    assert exc.value.reason == "residual"
    # the start of the failing piece of [1, 2], of width 2**-splits
    assert 1.3 - 2.0 ** -splits < exc.value.t_last < 1.3


def test_error_dynamics_dispatch():
    hurwitz = ev.build_hurwitz(A_EX1)
    ts = np.linspace(0.0, 2.0, 41)
    chirp = ev.make_perturbation("example1_unbounded")
    traj = ev.simulate_error_dynamics(hurwitz, chirp, [-1.0, 1.5], 0.0, 2.0,
                                      tol=1e-6, sample_times=ts)
    exact = propagate_linear(A_EX1, chirp.terms, 0.0, [-1.0, 1.5], 2.0, ts)
    assert np.array_equal(traj.states, exact.states)
    assert traj.diagnostics == exact.diagnostics
    # no sample grid, a factored W or a time signal without chirp terms:
    # the integrator, whose diagnostics carry the requested tolerance
    plain = ev.PerturbationSpec.from_signal(chirp.w, 2,
                                            freq_hint=chirp.freq_hint)
    for pert, samples in ((chirp, None), (plain, ts),
                          (ev.make_perturbation("example1_bounded"), ts)):
        traj = ev.simulate_error_dynamics(hurwitz, pert, [-1.0, 1.5], 0.0,
                                          2.0, tol=1e-6, sample_times=samples)
        assert traj.diagnostics["tol"] == 1e-6


def test_diagnostics_are_plain_python_types():
    pert = ev.make_perturbation("t_cos_t4")
    traj = propagate_linear([[-1.0]], pert.terms, 0.0, [0.0], 5.0,
                            np.linspace(0.0, 5.0, 3))
    d = traj.diagnostics
    for key in ("n_accepted", "n_rejected", "n_rhs"):
        assert type(d[key]) is int
    for key in ("min_step", "tol"):
        assert type(d[key]) is float
    assert d["min_step"] < 2.5
