"""Acceptance gate: one test per criterion, at the stated tolerances.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion.  Expected values marked as pinned were computed with the
independent Simpson oracle in oracles.py before the implementation was
trusted.
"""

import json
import math
import time

import numpy as np
import pytest

import evuas as ev
from evuas.scenarios import run_scenario

A_H = [[-1.0, 2.0], [0.0, -1.5]]

# pinned from oracles.window_sup_simpson (65536+ panels, step <= period/64)
T_COS_T4_ORACLE = {
    1: 0.251069989886, 2: 0.071324181662, 3: 0.045024494288,
    4: 0.031139853234, 5: 0.011754055141, 6: 0.013850948354,
    7: 0.008838560133, 8: 0.006228139092, 9: 0.006099484543,
    10: 0.003263313286,
}


def test_c01_remark1_scalar_bound():
    sig = ev.make_signal("cos_exp")
    start = time.monotonic()
    for t in range(9):
        v = ev.window_integral_sup(sig.fn, float(t), quad_tol=1e-9,
                                   freq_hint=sig.freq_hint)
        assert v <= 4.0 * math.exp(-t) + 1e-6
    assert time.monotonic() - start < 5.0


def test_c02_remark1_vector_bound():
    sig = ev.make_signal("vec_cos_sin_exp")
    prof = ev.diminishing_profile(sig.fn, np.arange(0.0, 9.0), quad_tol=1e-9,
                                  freq_hint=sig.freq_hint)
    assert np.all(prof.values <= math.sqrt(32.0) * np.exp(-prof.t_grid)
                  + 1e-6)


def test_c03_quartic_phase_metric_decay():
    sig = ev.make_signal("t_cos_t4")
    prof = ev.diminishing_profile(sig.fn, np.arange(1.0, 11.0), quad_tol=1e-9,
                                  freq_hint=sig.freq_hint)
    for t, want in T_COS_T4_ORACLE.items():
        got = prof.values[int(t) - 1]
        assert got == pytest.approx(want, abs=2e-6)
    assert prof.trend == "decreasing"
    assert prof.values[-1] < 0.1 * prof.values[0]


def test_c04_linear_closed_form():
    start = time.monotonic()
    traj = ev.simulate_error_dynamics(
        ev.build_hurwitz(A_H), None, [-1.0, 1.5], 0.0, 5.0, tol=1e-9,
        sample_times=np.linspace(0.0, 5.0, 501))
    elapsed = time.monotonic() - start
    t = traj.times
    exact = np.stack([5.0 * np.exp(-t) - 6.0 * np.exp(-1.5 * t),
                      1.5 * np.exp(-1.5 * t)], axis=1)
    assert np.max(np.abs(traj.states - exact)) < 1e-6
    assert elapsed < 1.0


@pytest.mark.slow
def test_c05_example1_reproduction_unbounded(tmp_path):
    start = time.monotonic()
    out = run_scenario("example1_unbounded", tmp_path / "o")
    elapsed = time.monotonic() - start
    traj = out["results"]["trajectory"]
    norms = traj.norms()
    tail = norms[traj.times >= 0.9 * traj.times[-1]]
    assert float(np.max(tail)) <= 0.05
    assert elapsed < 60.0


@pytest.mark.slow
def test_c05_example1_reproduction_bounded(tmp_path):
    start = time.monotonic()
    out = run_scenario("example1_bounded", tmp_path / "o")
    elapsed = time.monotonic() - start
    traj = out["results"]["trajectory"]
    norms = traj.norms()
    tail = norms[traj.times >= 0.9 * traj.times[-1]]
    assert float(np.max(tail)) <= 0.05
    assert elapsed < 60.0


def test_c06_converse_contrapositive():
    pert = ev.make_perturbation("const_e1", dim=2)
    hur = ev.build_hurwitz(A_H)
    fac = ev.make_error_factory(hur, pert, horizon=12.0, tol=1e-8)
    rep = ev.verify_evuas(fac, delta0=0.5, t0_grid=[0.0, 1.0, 2.0],
                          eps_levels=[0.5, 0.25], horizon=12.0, samples=6,
                          seed=7, dim=2)
    assert rep.evua == "fail"
    traj = ev.simulate_error_dynamics(hur, pert, [-1.0, 1.5], 0.0, 15.0,
                                      tol=1e-9)
    assert 0.99 <= float(traj.norms()[-1]) <= 1.01


def test_c07_newton_synthesis_exactness():
    model = ev.make_model("chain", m=1, n=2)
    gamma = ev.build_gamma([[-1.0]], 2)
    hur = ev.build_hurwitz([[-1.0]])
    ctrl = ev.synthesize_feedback(model, gamma, hur)
    assert ctrl.solve(np.zeros(2))[0] == 0.0
    grid = np.linspace(-2.0, 2.0, 10)
    for x1 in grid:
        for x2 in grid:
            x = np.array([x1, x2])
            # affine solve of the closing residual: u = -x2 + A_H (x1 + x2)
            closed_form = -x1 - 2.0 * x2
            assert abs(ctrl.solve(x)[0] - closed_form) <= 1e-10


def test_c08_pole_placement():
    model = ev.make_model("chain", m=1, n=2)
    ctrl = ev.linearize_and_place(model, [-1.0, -1.0])
    assert np.allclose(ctrl.gain, [[-1.0, -2.0]], atol=1e-10)
    a, b = ev.linearization(model)
    eig = np.sort(np.linalg.eigvals(a + b @ ctrl.gain).real)
    assert np.max(np.abs(eig - [-1.0, -1.0])) < 1e-8


def test_c09_levy_desplanques_soundness():
    rng = np.random.default_rng(20240517)
    for _ in range(1000):
        m = int(rng.integers(1, 8))
        b = rng.uniform(-1.0, 1.0, (m, m))
        off = np.sum(np.abs(b), axis=1) - np.abs(np.diag(b))
        sign = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        np.fill_diagonal(b, sign * (off + rng.uniform(0.05, 2.0, m)))
        report = ev.check_nonsingular(b)
        assert report.levy_desplanques
        assert report.numeric_nonsingular


def test_c10_roa_formulas():
    unit = ev.GammaDesign(gamma=np.array([[1.0]]), poles=[[-1.0]], n=2, m=1,
                          gamma_star=1.0, mu_gamma=1.0, kappa=1.0)
    r = ev.estimate_roa(unit, r_max=1.0, epsilon=0.5, delta_E_of_eps=0.3,
                        theta1=1.0, theta2=1.0, m=1)
    assert r.delta_star_E == 0.3
    assert r.delta_star_X == 0.5
    assert r.delta_star == 0.3

    wide = ev.GammaDesign(gamma=np.array([[2.0] * 4]), poles=[[-2.0]] * 4,
                          n=2, m=4, gamma_star=2.0, mu_gamma=2.0, kappa=1.0)
    r = ev.estimate_roa(wide, r_max=1.0, epsilon=0.5, delta_E_of_eps=0.4,
                        theta1=1.0, theta2=1.0, m=4)
    assert r.delta_star_E == 0.4 / (2.0 * 2.0)


def test_c11_reproducibility(tmp_path):
    def artifact_bytes(out_dir, names):
        return {n: (out_dir / n).read_bytes() for n in names}

    for source in ("remark1_bounds", {
            "name": "repro_verify", "seed": 5, "stages": ["verify"],
            "perturbation": {"name": "const_e1", "dim": 2},
            "design": {"a_h": A_H},
            "verify": {"target": "error", "delta0": 0.5,
                       "t0_grid": [0.0, 1.0], "eps_levels": [0.5, 0.25],
                       "horizon": 8.0, "samples": 4, "tol": 1e-7}}):
        tag = source if isinstance(source, str) else source["name"]
        a = run_scenario(source, tmp_path / f"{tag}_a", seed=3)
        b = run_scenario(source, tmp_path / f"{tag}_b", seed=3)
        assert a["artifacts"] == b["artifacts"]
        bytes_a = artifact_bytes(tmp_path / f"{tag}_a", a["artifacts"])
        bytes_b = artifact_bytes(tmp_path / f"{tag}_b", b["artifacts"])
        assert bytes_a == bytes_b
        # manifests agree on everything except the timestamp
        ma = json.loads((tmp_path / f"{tag}_a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / f"{tag}_b" / "manifest.json").read_text())
        ma.pop("created"), mb.pop("created")
        assert ma == mb
