import csv
import json
import math
import os

import numpy as np
import pytest

import evuas as ev
from evuas.cli import main as cli_main
from evuas.scenarios import (list_scenarios, load_scenario, run_scenario,
                             validate_scenario)

A_H = [[-1.0, 2.0], [0.0, -1.5]]

_SMALL_VERIFY = {
    "name": "small_verify",
    "seed": 5,
    "stages": ["verify"],
    "perturbation": {"name": "const_e1", "dim": 2},
    "design": {"a_h": A_H},
    "verify": {"target": "error", "delta0": 0.5, "t0_grid": [0.0, 1.0],
               "eps_levels": [0.5, 0.25], "horizon": 10.0, "samples": 4,
               "tol": 1e-7},
}


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --- validation

def test_validate_fills_defaults():
    doc = validate_scenario({"name": "x", "stages": []})
    assert doc["seed"] == 0
    assert doc["norm"] == "euclidean"
    assert doc["formats"] == ["csv", "json"]


def test_validate_rejects_unknown_top_level_key():
    with pytest.raises(ev.ScenarioError) as exc:
        validate_scenario({"name": "x", "stages": [], "bogus": 1})
    assert exc.value.field == "bogus"


def test_validate_field_paths():
    with pytest.raises(ev.ScenarioError) as exc:
        validate_scenario({"name": "x", "stages": [],
                           "model": {"name": "chain", "m": 0}})
    assert exc.value.field == "model.m"
    with pytest.raises(ev.ScenarioError) as exc:
        validate_scenario({"name": "x", "stages": [],
                           "simulate": {"kind": "error", "t_end": 1.0,
                                        "e0": [1.0, "a"]}})
    assert exc.value.field == "simulate.e0[1]"
    with pytest.raises(ev.ScenarioError) as exc:
        validate_scenario({"name": "x", "stages": [], "norm": "manhattan"})
    assert exc.value.field == "norm"


def test_validate_rejects_unresolvable_catalog_names():
    with pytest.raises(ev.ScenarioError) as exc:
        validate_scenario({"name": "x", "stages": [],
                           "perturbation": {"name": "nope"}})
    assert exc.value.field == "perturbation.name"


def test_validate_requires_stage_config():
    with pytest.raises(ev.ScenarioError) as exc:
        validate_scenario({"name": "x", "stages": ["simulate"]})
    assert exc.value.field == "simulate"


def test_validate_eps_levels_ordering():
    bad = dict(_SMALL_VERIFY)
    bad["verify"] = dict(bad["verify"], eps_levels=[0.25, 0.5])
    with pytest.raises(ev.ScenarioError) as exc:
        validate_scenario(bad)
    assert exc.value.field == "verify.eps_levels"


# --- execution

def test_empty_stage_scenario_writes_manifest_only(tmp_path):
    out = run_scenario({"name": "noop", "stages": []}, tmp_path / "o")
    assert out["artifacts"] == []
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["name"] == "noop"
    assert manifest["artifacts"] == []


def test_remark1_bounds_scenario_respects_bound(tmp_path):
    out = run_scenario("remark1_bounds", tmp_path / "o")
    rows = _read_csv(tmp_path / "o" / "signal_profile.csv")
    assert rows[0] == ["t", "value", "bound"]
    for t, value, bound in rows[1:]:
        assert float(value) <= float(bound)
        assert float(bound) == pytest.approx(4.0 * math.exp(-float(t)),
                                             rel=1e-12)
    cls = json.loads((tmp_path / "o" / "classification.json").read_text())
    assert cls["diminishing_evidence"] == "supported"
    assert cls["vanishing_at_tinf"] == "no"


def test_verify_scenario_reports_contrapositive(tmp_path):
    out = run_scenario(_SMALL_VERIFY, tmp_path / "o")
    rep = json.loads((tmp_path / "o" / "stability_report.json").read_text())
    assert rep["evua"] == "fail"
    assert rep["evuas"] == "fail"
    assert out["results"]["report"].evua == "fail"


def test_verify_scenario_closed_loop_target(tmp_path):
    doc = {
        "name": "cl_verify", "seed": 2, "stages": ["verify"],
        "model": {"name": "chain", "m": 1, "n": 2},
        "perturbation": {"name": "zero"},
        "design": {"mode": "implicit", "poles": [[-1.0]], "a_h": "default"},
        "verify": {"target": "closed-loop", "delta0": 0.4,
                   "t0_grid": [0.0, 1.0], "eps_levels": [0.5, 0.25],
                   "horizon": 10.0, "samples": 3, "tol": 1e-7},
    }
    run_scenario(doc, tmp_path / "o")
    rep = json.loads((tmp_path / "o" / "stability_report.json").read_text())
    assert rep["evuas"] == "pass"


def test_tracking_scenario(tmp_path):
    out = run_scenario("tracking_demo", tmp_path / "o")
    rows = _read_csv(tmp_path / "o" / "trajectory.csv")
    assert rows[0] == ["t", "x_1", "x_2", "u_1", "norm"]
    assert float(rows[-1][-1]) < 1e-6
    ctrl = json.loads((tmp_path / "o" / "controller.json").read_text())
    assert ctrl["mode"] == "implicit-newton"


def test_tracking_scenario_is_the_closed_form(tmp_path):
    # Delta(0) = (0.3, 0) under the double closed-loop pole -1
    run_scenario("tracking_demo", tmp_path / "o")
    rows = _read_csv(tmp_path / "o" / "trajectory.csv")
    got = np.array([[float(v) for v in row[:3]] for row in rows[1:]])
    t = got[:, 0]
    want = np.stack([0.3 * (1 + t) * np.exp(-t), -0.3 * t * np.exp(-t)], 1)
    assert np.max(np.abs(got[:, 1:] - want)) <= 1e-14
    diag = json.loads((tmp_path / "o" /
                       "trajectory_diagnostics.json").read_text())
    assert diag["n_rhs"] == 0


def test_pole_placement_scenario(tmp_path):
    run_scenario("pole_placement_demo", tmp_path / "o")
    ctrl = json.loads((tmp_path / "o" / "controller.json").read_text())
    assert ctrl["mode"] == "linear-gain"
    assert np.allclose(ctrl["gain"], [[-1.0, -2.0]])
    rows = _read_csv(tmp_path / "o" / "trajectory.csv")
    assert float(rows[-1][-1]) < 1e-4


def test_manifest_lists_every_artifact_with_hash(tmp_path):
    import hashlib
    run_scenario(_SMALL_VERIFY, tmp_path / "o")
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    files = {e["path"]: e["sha256"] for e in manifest["artifacts"]}
    emitted = {f for f in os.listdir(tmp_path / "o") if f != "manifest.json"}
    assert set(files) == emitted
    for name, digest in files.items():
        blob = (tmp_path / "o" / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest


def test_svg_format_emits_plots(tmp_path):
    doc = {
        "name": "svg_demo", "seed": 0,
        "outputs": {"formats": ["csv", "json", "svg"]},
        "stages": ["simulate"],
        "design": {"a_h": A_H},
        "simulate": {"kind": "error", "e0": [-1.0, 1.5], "t0": 0.0,
                     "t_end": 5.0, "tol": 1e-8, "samples": 101},
    }
    run_scenario(doc, tmp_path / "o")
    svg = (tmp_path / "o" / "trajectory.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_stage_failure_raises_runtime_error(tmp_path):
    doc = {
        "name": "bad_stage", "seed": 0, "stages": ["synthesize"],
        "model": {"name": "chain", "m": 1, "n": 2},
        "design": {"mode": "implicit", "poles": [[-1.0]],
                   "a_h": [[1.0]]},       # not Hurwitz
    }
    with pytest.raises(RuntimeError, match="synthesize"):
        run_scenario(doc, tmp_path / "o")


def test_scenario_lookup_and_env_dirs(tmp_path, monkeypatch):
    userdir = tmp_path / "user_scenarios"
    userdir.mkdir()
    custom = dict(_SMALL_VERIFY, name="my_custom")
    with open(userdir / "my_custom.json", "w") as fh:
        json.dump(custom, fh)
    monkeypatch.setenv("EVUAS_SCENARIO_PATH", str(userdir))
    doc = load_scenario("my_custom")
    assert doc["name"] == "my_custom"
    names = [n for n, _, _ in list_scenarios()]
    assert "my_custom" in names and "example1_unbounded" in names
    monkeypatch.delenv("EVUAS_SCENARIO_PATH")
    assert "my_custom" not in [n for n, _, _ in list_scenarios()]


def test_unknown_scenario_name_is_a_scenario_error():
    with pytest.raises(ev.ScenarioError):
        load_scenario("definitely_not_a_scenario")


# --- CLI

def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "evuas", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "scenarios:" in proc.stdout


def test_cli_list_prints_catalogs(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("chain", "cubic", "tanh", "cos_exp", "t_cos_t4",
                 "example1_unbounded", "example1_bounded"):
        assert name in out


def test_cli_list_includes_user_scenarios(tmp_path, capsys):
    userdir = tmp_path / "sc"
    userdir.mkdir()
    with open(userdir / "extra_case.json", "w") as fh:
        json.dump(dict(_SMALL_VERIFY, name="extra_case"), fh)
    assert cli_main(["list", "--scenario-dir", str(userdir)]) == 0
    assert "extra_case" in capsys.readouterr().out


def test_cli_run_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["run", str(bad), "--out", str(tmp_path / "o1")]) == 2

    schema_bad = tmp_path / "schema_bad.json"
    schema_bad.write_text(json.dumps({"name": "x", "stages": ["simulate"]}))
    assert cli_main(["run", str(schema_bad), "--out", str(tmp_path / "o2")]) == 2
    assert "simulate" in capsys.readouterr().err

    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps({
        "name": "x", "stages": ["synthesize"],
        "model": {"name": "chain", "m": 1, "n": 2},
        "design": {"mode": "implicit", "poles": [[-1.0]], "a_h": [[1.0]]}}))
    assert cli_main(["run", str(failing), "--out", str(tmp_path / "o3")]) == 1


def test_cli_classify(tmp_path, capsys):
    rc = cli_main(["classify", "--perturbation", "const1",
                   "--t-horizon", "8", "--grid", "0,1,2,3,4",
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    cls = json.loads((tmp_path / "o" / "classification.json").read_text())
    assert cls["diminishing_evidence"] == "refuted"


def test_cli_synthesize_and_simulate(tmp_path):
    rc = cli_main(["synthesize", "--model", "cubic", "--poles=-1",
                   "--out", str(tmp_path / "a")])
    assert rc == 0
    ctrl = json.loads((tmp_path / "a" / "controller.json").read_text())
    assert ctrl["mode"] == "implicit-newton"

    rc = cli_main(["simulate", "--kind", "error", "--a-h=-1,2;0,-1.5",
                   "--e0=-1,1.5", "--t-end", "5", "--tol", "1e-8",
                   "--samples", "51", "--out", str(tmp_path / "b")])
    assert rc == 0
    rows = _read_csv(tmp_path / "b" / "trajectory.csv")
    assert len(rows) == 52

    rc = cli_main(["simulate", "--kind", "closed-loop", "--model", "chain",
                   "--poles=-1", "--x0", "0.5,0", "--t-end", "10",
                   "--out", str(tmp_path / "c")])
    assert rc == 0
    rows = _read_csv(tmp_path / "c" / "trajectory.csv")
    assert float(rows[-1][-1]) < 0.01


def test_cli_verify(tmp_path):
    rc = cli_main(["verify", "--a-h=-1,2;0,-1.5", "--perturbation",
                   "const_e1", "--delta0", "0.5", "--t0-grid", "0,1",
                   "--eps-levels", "0.5,0.25", "--horizon", "10",
                   "--samples", "3", "--out", str(tmp_path / "o")])
    assert rc == 0
    rep = json.loads((tmp_path / "o" / "stability_report.json").read_text())
    assert rep["evua"] == "fail"


@pytest.mark.parametrize("samples", [[], ["--samples", "11"]],
                         ids=["integrate", "propagate"])
def test_cli_rejects_a_disturbance_of_the_wrong_width(tmp_path, samples,
                                                       capsys):
    rc = cli_main(["simulate", "--kind", "error", "--a-h=-1,0;0,-1",
                   "--e0=0,0", "--perturbation", "cos_exp",
                   "--out", str(tmp_path / "s")] + samples)
    assert rc == 1
    rc = cli_main(["verify", "--a-h=-1,0;0,-1", "--perturbation", "cos_exp",
                   "--samples", "2", "--out", str(tmp_path / "v")])
    assert rc == 1
    assert "1 components" in capsys.readouterr().err


def test_cli_norm_and_seed_overrides(tmp_path):
    rc = cli_main(["run", "remark1_bounds", "--out", str(tmp_path / "o"),
                   "--seed", "9", "--norm", "inf"])
    assert rc == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["seed"] == 9
