"""The benchmark's own checks, at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import evuas as ev
import instrument
import workloads
from evuas.scenarios import run_scenario
from instrument import Instrument

ROOT = Path(__file__).resolve().parents[2]


def _bindings():
    """Every attribute of every evuas module and of the patched classes."""
    snap = {}
    for mod in instrument._package_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
    for cls in (ev.ImplicitController, ev.PerturbationSpec):
        for name, value in vars(cls).items():
            snap[(cls.__qualname__, name)] = value
    return snap


@pytest.mark.parametrize("timed", [False, True])
def test_wrappers_restore_the_originals(timed):
    import evuas.simulate

    before = _bindings()
    original = evuas.simulate.integrate
    with Instrument(timed=timed):
        assert evuas.simulate.integrate is not original
        assert ev.ImplicitController.solve is not before[
            ("ImplicitController", "solve")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_restore_after_an_error():
    before = _bindings()
    with pytest.raises(ValueError):
        with Instrument(timed=True):
            ev.simulate_error_dynamics(ev.default_hurwitz(1), None, [1.0],
                                       1.0, 0.0)
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_equal_trajectory_diagnostics():
    pert = ev.make_perturbation("cos_exp")
    with Instrument(timed=True) as inst:
        traj = ev.simulate_error_dynamics(ev.default_hurwitz(1), pert, [0.5],
                                          0.0, 2.0, tol=1e-7)
    counts, stats = inst.take()
    diag = traj.diagnostics
    assert counts["integrate.calls"] == 1
    assert counts["integrate.steps"] == diag["n_accepted"]
    assert counts["integrate.rejected"] == diag["n_rejected"]
    assert counts["integrate.rhs_calls"] == diag["n_rhs"]
    # the wrapped RHS saw exactly the calls the integrator reports
    assert stats["rhs"][0] == diag["n_rhs"]
    span = [s for s in inst.spans if s["name"] == "integrate"]
    assert len(span) == 1 and span[0]["hot"]["rhs"][0] == diag["n_rhs"]


def test_newton_counts_match_between_levels():
    model = ev.make_model("cubic")
    ctrl = ev.synthesize_feedback(model, ev.build_gamma([[-1.0]], 2),
                                  ev.default_hurwitz(1))
    pert = ev.make_perturbation("cos_exp")
    seen = {}
    for timed in (False, True):
        with Instrument(timed=timed) as inst:
            traj = ev.simulate_closed_loop(model, ctrl, pert, [0.3, 0.0], 0.0,
                                           0.5, tol=1e-6)
        counts, stats = inst.take()
        seen[timed] = counts
        # six RHS evaluations per try plus two at the start, one solve each,
        # then one solve per reported sample
        assert counts["newton.solves"] == (traj.diagnostics["n_rhs"]
                                           + traj.times.size)
        assert counts["newton.iterations"] >= 1
    assert seen[False] == {k: v for k, v in seen[True].items()
                           if k in seen[False]}
    assert stats["newton"][0] == seen[True]["newton.solves"]


def test_gate_fails_on_a_perturbed_reference(tmp_path, monkeypatch):
    run = run_scenario("remark1_unbounded_profile", tmp_path / "o")
    checks = []
    workloads._gate_remark1_unbounded(checks, "r", run)
    assert [c["failed"] for c in checks] == [0]

    perturbed = dict(workloads.T_COS_T4_ORACLE)
    perturbed[5] += 1e-5
    monkeypatch.setattr(workloads, "T_COS_T4_ORACLE", perturbed)
    checks = []
    workloads._gate_remark1_unbounded(checks, "r", run)
    assert [c["failed"] for c in checks] == [1]


def test_verdict_table_gate_fails_on_a_perturbed_reference():
    ref = workloads.VERIFY_ERROR_TABLES
    assert workloads.tables_match(copy.deepcopy(ref), ref)
    bad = copy.deepcopy(ref)
    bad["evus_table"][1]["delta"] = 0.25
    assert not workloads.tables_match(bad, ref)
    bad = copy.deepcopy(ref)
    bad["evua_table"][0]["T"] += 2 * workloads.T_TOL
    assert not workloads.tables_match(bad, ref)


def test_run_fails_without_the_package(tmp_path):
    # a checkout holding only the benchmark must fail without a result
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    proc = subprocess.run(cmd + ["--workload", "verify_error", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fingerprint_keys_are_counted():
    with Instrument(timed=False) as inst:
        rep = ev.verify_evuas(
            ev.make_error_factory(ev.default_hurwitz(1),
                                  ev.make_perturbation("cos_exp"),
                                  horizon=1.0, tol=1e-6),
            delta0=0.5, t0_grid=[0.0], eps_levels=[0.5], horizon=1.0,
            samples=1, seed=7, dim=1)
    counts, _ = inst.take()
    assert counts["verify.samples"] == rep.samples == 3
    assert counts["integrate.calls"] == 3
    assert counts["integrate.steps"] > 0


def test_calibrator_samples_and_restores_the_signal_handler():
    import signal
    import time

    import calibrate

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Calibrator(period=0.005) as cal:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(cal.samples) >= 5
    assert cal.spent == pytest.approx(sum(cal.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    corrected, factor = calibrate.correct(
        1.5, 0.5, [2 * calibrate.REFERENCE_S])
    assert (corrected, factor) == (0.5, 2.0)


def test_per_layer_names_match_the_contract():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = [{"traced": traced, "factor": 1.0, "wall_s": 1.0, "raw_wall_s": 1.0,
            "counts": {}, "stats": {}, "artifact_bytes": 0}
           for traced in (False, True)]
    metrics = run.per_layer(ops, {"import_s": 0.1, "synthesize_s": 0.0})
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert [u for _, u in metrics.values()] == \
        [m["unit"] for m in spec["per_layer"]]
    e2e = run.end_to_end([dict(ops[0], cpu_s=1.0, trajectories=1)],
                         [{"setup_s": 0.2}])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert [u for _, u in e2e.values()] == \
        [m["unit"] for m in spec["end_to_end"]]
