import copy
import csv
import json
import math
import os
import shlex
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import evuas as ev
from evuas.cli import main as cli_main
from evuas.scenarios import (_config_hash, list_scenarios, load_scenario,
                             run_scenario, validate_scenario)

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


def _bundled(name):
    """A bundled scenario's raw document."""
    entry = resources.files("evuas").joinpath(f"scenario_files/{name}.json")
    return json.loads(entry.read_text(encoding="utf-8"))


def _renamed(doc, section, old, new):
    doc = copy.deepcopy(doc)
    doc[section][new] = doc[section].pop(old)
    return doc


def _field_of(doc):
    with pytest.raises(ev.ScenarioError) as exc:
        validate_scenario(doc)
    return exc.value.field


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


def test_validate_rejects_empty_eps_levels():
    # an empty list used to pass and write a vacuous "pass" report
    bad = dict(_SMALL_VERIFY)
    bad["verify"] = dict(bad["verify"], eps_levels=[])
    with pytest.raises(ev.ScenarioError, match="must be non-empty") as exc:
        validate_scenario(bad)
    assert exc.value.field == "verify.eps_levels"


def test_validate_eps_levels_ordering():
    bad = dict(_SMALL_VERIFY)
    bad["verify"] = dict(bad["verify"], eps_levels=[0.25, 0.5])
    with pytest.raises(ev.ScenarioError) as exc:
        validate_scenario(bad)
    assert exc.value.field == "verify.eps_levels"


# a misspelt field, one per level of the document
_TYPOS = {
    "stage": {"name": "x", "stage": []},
    "outputs.format": {"name": "x", "outputs": {"format": ["svg"]}},
    "model.M": {"name": "x", "model": {"name": "chain", "M": 2}},
    "perturbation.dims": {"name": "x",
                          "perturbation": {"name": "zero", "dims": 2}},
    "design.a_H": {"name": "x", "design": {"a_H": A_H}},
    "classify.quad_tols": {"name": "x", "classify": {"quad_tols": 1e-9}},
    # 203,740 RK steps instead of 2,001 propagated samples if dropped
    "simulate.sample": _renamed(_bundled("example1_unbounded"), "simulate",
                                "samples", "sample"),
    "verify.sample": _renamed(_SMALL_VERIFY, "verify", "samples", "sample"),
}


@pytest.mark.parametrize("field", sorted(_TYPOS))
def test_a_misspelt_field_is_rejected_at_every_level(field):
    assert _field_of(_TYPOS[field]) == field


def _with_section(section, body):
    return {"name": "x", "stages": [], section: body}


_SIM = {"kind": "error", "e0": [1.0, 0.0], "t_end": 1.0}
_RULES = {
    "required": ({"stages": []}, "name"),
    "required_in_section": (_with_section(
        "simulate", {"kind": "error", "e0": [1.0]}), "simulate.t_end"),
    "required_by_mode": (_with_section("design", {"mode": "linear"}),
                         "design.poles"),
    "type": ({"name": "x", "seed": "7"}, "seed"),
    "finite": (_with_section("simulate", dict(_SIM, t_end=math.nan)),
               "simulate.t_end"),
    "object": (_with_section("model", ["chain"]), "model"),
    "positive": (_with_section("classify", {"probe_radius": 0}),
                 "classify.probe_radius"),
    "at_least": (_with_section("simulate", dict(_SIM, samples=1)),
                 "simulate.samples"),
    "one_of": (_with_section("design", {"mode": "explicit"}), "design.mode"),
    "one_of_in_list": ({"name": "x", "stages": ["plot"]}, "stages[0]"),
    "increasing": (_with_section("classify", {"profile_grid": [0, 2, 1]}),
                   "classify.profile_grid"),
    "decreasing": (_with_section("verify", dict(
        _SMALL_VERIFY["verify"], eps_levels=[0.5, 0.5])),
        "verify.eps_levels"),
    "non_empty": (_with_section("verify", dict(
        _SMALL_VERIFY["verify"], t0_grid=[])), "verify.t0_grid"),
    # every onset is >= 0, so a sample started before 0 is never judged
    "non_negative": (_with_section("verify", dict(
        _SMALL_VERIFY["verify"], t0_grid=[-1.0, 0.0, 1.0])),
        "verify.t0_grid"),
    "ragged_row": (_with_section("design", {"a_h": [[-1.0, 0.0], [-1.0]]}),
                   "design.a_h[1]"),
    "square": (_with_section("design", {"a_h": [[-1.0, 2.0]]}),
               "design.a_h"),
    "pole_pair": (_with_section("design", {"poles": [[[-1.0, 0.0, 1.0]]]}),
                  "design.poles[0][0]"),
    "pole_part": (_with_section("design", {"poles": [[[-1.0, "i"]]]}),
                  "design.poles[0][0][1]"),
    "t_end_after_t0": (_with_section("simulate", dict(_SIM, t0=2.0)),
                       "simulate.t_end"),
    "e0_fits_a_h": (dict(_with_section("simulate", _SIM), design={
        "a_h": [[-1.0]]}), "simulate.e0"),
    "stage_section": ({"name": "x", "stages": ["classify"],
                       "classify": {}}, "perturbation"),
}


@pytest.mark.parametrize("rule", sorted(_RULES))
def test_each_rule_names_its_field(rule):
    doc, field = _RULES[rule]
    assert _field_of(doc) == field


@pytest.mark.parametrize("sim, key", [
    ({"kind": "closed-loop", "x0": [0.0, 0.0], "e0": [0.0, 0.0]}, "e0"),
    ({"kind": "error", "e0": [0.0], "x0": [0.0]}, "x0"),
    ({"kind": "closed-loop", "x0": [0.0, 0.0], "reference": "sin_cos"},
     "reference"),
], ids=["e0_on_a_loop", "x0_on_an_error_run", "reference_off_tracking"])
def test_a_field_its_kind_does_not_use_is_rejected(sim, key):
    doc = _with_section("simulate", dict(sim, t_end=1.0))
    assert _field_of(doc) == f"simulate.{key}"


# config hashes of the bundled scenarios: a change to a default or to the
# validated document's form shows here
_PINNED_HASHES = {
    "example1_unbounded":
        "25b48b2a086379f1dbcb9a39525fc35970fb100bc2f24e287c455e219f588674",
    "example1_bounded":
        "f6326c6b8981e371740d9f878e499a2026f2b477a554a122177daeaf936b5e39",
    "remark1_bounds":
        "da8c790dbd2a81b7a90db57a6920ebfcbe2e597758162377849c0099636dc1e7",
    "remark1_unbounded_profile":
        "3454f445c719369fe2db8a4ea0ff085bc23baa440d56280d4693cacc1d23f115",
    "tracking_demo":
        "66f4ede4b04dc12c35143f3b3045923de73a2a293cdbd99caefeee18d3b6d566",
    "pole_placement_demo":
        "9dad23cf8fff5ff2210f1782bee4cc614781eca6041ba856a94cfbc7519da2bc",
}


@pytest.mark.parametrize("name", sorted(_PINNED_HASHES))
def test_bundled_scenario_config_hash_is_pinned(name):
    assert _config_hash(load_scenario(name)) == _PINNED_HASHES[name]


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


@pytest.mark.parametrize("name, bound", [("remark1_bounds", True),
                                         ("remark1_unbounded_profile", False)])
def test_svg_format_plots_the_signal_profile(tmp_path, name, bound):
    # the window metric, and the catalog's analytic bound where it has one
    out = run_scenario(name, tmp_path / "o", formats=["svg"])
    assert "signal_profile.svg" in [a["path"]
                                    for a in out["manifest"]["artifacts"]]
    svg = (tmp_path / "o" / "signal_profile.svg").read_text()
    assert svg.count("<polyline") == (2 if bound else 1)
    assert ("analytic bound" in svg) == bound


def test_overrides_are_validated_like_document_fields(tmp_path):
    for override, field in [({"tol": -1}, "simulate.tol"),
                            ({"norm": "manhattan"}, "norm"),
                            ({"formats": ["pdf"]}, "outputs.formats[0]"),
                            ({"seed": "7"}, "seed")]:
        with pytest.raises(ev.ScenarioError) as exc:
            run_scenario("example1_unbounded", tmp_path / "o", **override)
        assert exc.value.field == field
    assert not (tmp_path / "o").exists()


def test_overrides_leave_the_callers_document_alone(tmp_path):
    doc = copy.deepcopy(_SMALL_VERIFY)
    out = run_scenario(doc, tmp_path / "o", seed=2, tol=1e-6, norm="inf",
                       formats=["json"])
    assert doc == _SMALL_VERIFY
    assert (out["doc"]["seed"], out["doc"]["verify"]["tol"],
            out["doc"]["norm"], out["doc"]["formats"]) == \
        (2, 1e-6, "inf", ["json"])


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


# documents whose stages need what they lack, with the field named; each
# is rejected before its first stage, so no artifact is written
_CHAIN = {"name": "chain", "m": 1, "n": 2}
_LOOP_SIM = {"kind": "closed-loop", "x0": [0.5, 0.0], "t_end": 1.0}
_CLASSIFY_FIRST = {"name": "x", "perturbation": {"name": "cos_exp"},
                   "classify": {"t_horizon": 4.0, "profile_grid": [0, 1]}}
_STAGE_NEEDS = {
    "loop_without_model": (dict(
        _CLASSIFY_FIRST, stages=["classify", "simulate"],
        design={"poles": [[-1.0]]}, simulate=_LOOP_SIM), "model"),
    "scalar_model_after_classify": (dict(
        _CLASSIFY_FIRST, stages=["classify", "synthesize"],
        model={"name": "cubic", "m": 2},
        design={"poles": [[-1.0], [-1.0]]}), "model.m"),
    "synthesize_without_model": ({
        "name": "x", "stages": ["synthesize"],
        "design": {"poles": [[-1.0]]}}, "model"),
    "synthesize_without_design": ({
        "name": "x", "stages": ["synthesize"], "model": _CHAIN}, "design"),
    "tracking_under_linear_mode": ({
        "name": "x", "stages": ["simulate"], "model": _CHAIN,
        "design": {"mode": "linear", "poles": [-1.0, -1.0]},
        "simulate": {"kind": "tracking", "x0": [0.3, 1.0], "t_end": 1.0}},
        "design.mode"),
    "implicit_loop_without_poles": ({
        "name": "x", "stages": ["simulate"], "model": _CHAIN,
        "design": {"a_h": "default"}, "simulate": _LOOP_SIM},
        "design.poles"),
    "closed_loop_verify_without_model": ({
        "name": "x", "stages": ["verify"], "design": {"poles": [[-1.0]]},
        "verify": dict(_SMALL_VERIFY["verify"], target="closed-loop")},
        "model"),
    "error_verify_without_size": ({
        "name": "x", "stages": ["verify"], "design": {"a_h": "default"},
        "verify": _SMALL_VERIFY["verify"]}, "verify"),
}


@pytest.mark.parametrize("case", sorted(_STAGE_NEEDS))
def test_what_a_stage_needs_is_checked_before_any_stage_runs(tmp_path,
                                                             capsys, case):
    doc, field = _STAGE_NEEDS[case]
    assert _field_of(doc) == field
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert cli_main(["run", str(path), "--out", str(out)]) == 2
    assert f"scenario error: {field}:" in capsys.readouterr().err
    assert not out.exists()


def _pole_placement(stages, **sections):
    doc = dict(_bundled("pole_placement_demo"), stages=stages, **sections)
    doc["simulate"] = dict(doc["simulate"], t_end=5.0, samples=51)
    return doc


def test_pole_placement_scenario_with_a_triple_pole(tmp_path):
    # y^(3) = u with all three poles at -1: y0 (1 + t + t^2 / 2) e^{-t}
    y0 = 0.5
    doc = _pole_placement(["synthesize", "simulate"],
                          model={"name": "chain", "m": 1, "n": 3},
                          design={"mode": "linear", "poles": [-1.0] * 3})
    doc["simulate"] = dict(doc["simulate"], x0=[y0, 0.0, 0.0], tol=1e-11)
    run_scenario(doc, tmp_path / "o")
    ctrl = json.loads((tmp_path / "o" / "controller.json").read_text())
    assert ctrl["gain"] == [[-1.0, -3.0, -3.0]]
    rows = _read_csv(tmp_path / "o" / "trajectory.csv")
    got = np.array([[float(v) for v in row[:2]] for row in rows[1:]])
    t = got[:, 0]
    want = y0 * (1.0 + t + t ** 2 / 2.0) * np.exp(-t)
    assert np.max(np.abs(got[:, 1] - want)) <= 1e-8


_LINEAR_VERIFY = {"target": "closed-loop", "delta0": 0.5,
                  "t0_grid": [0.0, 1.0], "eps_levels": [0.5, 0.25],
                  "horizon": 5.0, "samples": 2, "tol": 1e-7}


@pytest.mark.parametrize("stage, artifact", [
    ("simulate", "trajectory.csv"), ("verify", "stability_report.json")])
def test_the_linear_controller_needs_no_synthesize_stage(tmp_path, stage,
                                                        artifact):
    alone = run_scenario(_pole_placement([stage], verify=_LINEAR_VERIFY),
                         tmp_path / "alone")
    after = run_scenario(
        _pole_placement(["synthesize", stage], verify=_LINEAR_VERIFY),
        tmp_path / "after")
    assert artifact in alone["artifacts"]
    assert after["artifacts"] == ["controller.json"] + alone["artifacts"]
    for name in alone["artifacts"]:
        assert (tmp_path / "alone" / name).read_bytes() == \
            (tmp_path / "after" / name).read_bytes()


@pytest.mark.parametrize("sections", [
    {"simulate": {"kind": "error", "e0": [0.1, 0.0, 0.0], "t_end": 1.0}},
    {"perturbation": {"name": "const_e1", "dim": 3}},
], ids=["e0", "perturbation"])
def test_an_error_verify_takes_its_size_from_e0_or_the_perturbation(
        tmp_path, sections):
    # a default a_h has no size; every witness is a point of the error
    # system, and the smallest sampled radius 1 / 4 exceeds the level 0.1
    verify = dict(_SMALL_VERIFY["verify"], delta0=1.0, eps_levels=[0.1])
    doc = {"name": "x", "stages": ["verify"], "design": {"a_h": "default"},
           "verify": verify, **sections}
    report = run_scenario(doc, tmp_path / "o")["results"]["report"]
    assert report.witnesses
    assert {len(w["x0"]) for w in report.witnesses} == {3}


# --- CLI

def _child_env():
    # the child imports the evuas this test imported, however it was found
    package_root = str(Path(ev.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "evuas", "list"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "scenarios:" in proc.stdout


_SCIPY_FREE_RUN = """
import sys
import evuas, evuas.cli, evuas.scenarios
factory = evuas.make_error_factory(evuas.default_hurwitz(1),
                                   evuas.make_perturbation("cos_exp"), 6.0)
evuas.verify_evuas(factory, delta0=0.5, t0_grid=[0.0, 1.0], eps_levels=[0.5],
                   horizon=6.0, samples=2, seed=7, dim=1)
evuas.scenarios.run_scenario("tracking_demo", sys.argv[1])
evuas.build_gamma([[-1.0, -2.0]], 3)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_the_package_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: an error verify sweep, a scenario
    # that propagates and designs Gamma, and a Gamma design load none of it
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SCIPY_FREE_RUN,
         str(tmp_path / "tracking")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


_NOT_A_DOCUMENT = {"a_list": b"[1, 2]", "not_utf8": b"\xff\xfe\x7b",
                   "bad_json": b"{not json"}


def test_cli_list_marks_files_that_are_not_documents(tmp_path, capsys):
    userdir = tmp_path / "sc"
    userdir.mkdir()
    for name, blob in _NOT_A_DOCUMENT.items():
        (userdir / f"{name}.json").write_bytes(blob)
    (userdir / "fine.json").write_text(json.dumps({"description": "ok"}))
    assert cli_main(["list", "--scenario-dir", str(userdir)]) == 0
    assert capsys.readouterr().out.count("(unreadable)") == 3
    rows = {n: desc for n, desc, _ in list_scenarios([str(userdir)])}
    assert rows["fine"] == "ok"
    for name in _NOT_A_DOCUMENT:
        assert rows[name] == "(unreadable)"


def test_cli_run_of_a_file_that_is_not_utf8_is_a_scenario_error(tmp_path,
                                                                 capsys):
    bad = tmp_path / "not_utf8.json"
    bad.write_bytes(_NOT_A_DOCUMENT["not_utf8"])
    with pytest.raises(ev.ScenarioError, match="invalid JSON"):
        load_scenario(str(bad))
    assert cli_main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "scenario error: invalid JSON" in capsys.readouterr().err


def test_cli_run_of_a_document_that_is_not_an_object_names_it(tmp_path,
                                                               capsys):
    bad = tmp_path / "a_list.json"
    bad.write_bytes(_NOT_A_DOCUMENT["a_list"])
    assert cli_main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "scenario error: document: expected an object" in \
        capsys.readouterr().err


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


def test_cli_places_repeated_poles(tmp_path):
    rc = cli_main(["synthesize", "--mode", "linear", "--model", "chain",
                   "--n", "3", "--poles=-1,-1,-1", "--out", str(tmp_path)])
    assert rc == 0
    ctrl = json.loads((tmp_path / "controller.json").read_text())
    assert ctrl["gain"] == [[-1.0, -3.0, -3.0]]


def test_cli_verify(tmp_path):
    rc = cli_main(["verify", "--a-h=-1,2;0,-1.5", "--perturbation",
                   "const_e1", "--delta0", "0.5", "--t0-grid", "0,1",
                   "--eps-levels", "0.5,0.25", "--horizon", "10",
                   "--samples", "3", "--out", str(tmp_path / "o")])
    assert rc == 0
    rep = json.loads((tmp_path / "o" / "stability_report.json").read_text())
    assert rep["evua"] == "fail"


def test_cli_verify_rejects_a_negative_start_time(tmp_path, capsys):
    rc = cli_main(["verify", "--a-h=-1", "--perturbation", "cos_exp",
                   "--t0-grid=-1,0,1", "--samples", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "verify.t0_grid: must be non-empty and non-negative" in \
        capsys.readouterr().err


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


def test_cli_override_is_validated(tmp_path, capsys):
    rc = cli_main(["run", "example1_unbounded", "--tol", "-1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "simulate.tol" in capsys.readouterr().err


# a command, the written document it stands for and their config hash;
# the flags left out and the fields omitted take the schema's defaults
_CLI_DOCUMENTS = {
    "simulate": (
        ["simulate", "--kind", "error", "--a-h=-1,2;0,-1.5", "--e0=-1,1.5",
         "--t-end", "10", "--samples", "201"],
        {"name": "simulate_cli", "stages": ["simulate"],
         "design": {"a_h": A_H},
         "simulate": {"kind": "error", "e0": [-1, 1.5], "t_end": 10,
                      "samples": 201}},
        "0848614dd70acfbb26499ab8bf964270bd561e5a88fb7d6704684cca6a51dfb9"),
    "verify": (
        ["verify", "--a-h=-1,2;0,-1.5", "--perturbation", "const_e1",
         "--samples", "3", "--seed", "4", "--tol", "1e-5"],
        {"name": "verify_cli", "seed": 4, "stages": ["verify"],
         "design": {"a_h": A_H}, "perturbation": {"name": "const_e1"},
         "verify": {"delta0": 0.5, "t0_grid": [0, 1, 2],
                    "eps_levels": [0.5, 0.25], "horizon": 10,
                    "samples": 3, "tol": 1e-5}},
        "c7f7bfe5caf8687d5da9a32a5fac5243161a23ed1c05cf276d7cced13447f07a"),
    "synthesize": (
        ["synthesize", "--model", "cubic", "--poles=-1"],
        {"name": "synthesize_cubic", "stages": ["synthesize"],
         "model": {"name": "cubic"},
         "design": {"poles": [[-1]], "a_h": "default"}},
        "3178885d422c21c5f2efa9873e927c88952f553b59eae4f4389e2fcd13ff9248"),
}


@pytest.mark.parametrize("command", sorted(_CLI_DOCUMENTS))
def test_cli_document_has_the_hash_of_the_written_document(tmp_path,
                                                           command):
    argv, written, digest = _CLI_DOCUMENTS[command]
    assert cli_main(argv + ["--out", str(tmp_path / "cli")]) == 0
    manifest = json.loads((tmp_path / "cli" / "manifest.json").read_text())
    assert manifest["config_hash"] == digest
    assert _config_hash(load_scenario(written)) == digest


# document errors: exit 2 naming the field, not a stage failure
_DOCUMENT_ERRORS = {
    "scalar_model": (["synthesize", "--model", "cubic", "--m", "2",
                      "--poles=-1;-1"], "model.m"),
    "signal_dim": (["classify", "--perturbation", "cos_exp", "--dim", "2"],
                   "perturbation.dim"),
    "non_square_a_h_simulate": (["simulate", "--kind", "error", "--a-h=-1,2",
                                 "--e0=-1,1.5"], "design.a_h"),
    "non_square_a_h_verify": (["verify", "--a-h=-1,2"], "design.a_h"),
    "e0_width": (["simulate", "--kind", "error", "--a-h=-1,0;0,-1",
                  "--e0=1,2,3"], "simulate.e0"),
    "reference_shape": (["simulate", "--kind", "tracking", "--m", "2",
                         "--poles=-1;-2", "--x0", "0,0,0,0"],
                        "simulate.reference"),
    "missing_e0": (["simulate", "--kind", "error"], "simulate.e0"),
}


@pytest.mark.parametrize("case", sorted(_DOCUMENT_ERRORS))
def test_cli_document_errors_exit_2_naming_the_field(tmp_path, capsys,
                                                      case):
    argv, field = _DOCUMENT_ERRORS[case]
    assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert f"scenario error: {field}:" in capsys.readouterr().err


def test_readme_command_lines_are_one_shell_command_each():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```sh")[1]
    lines = block.split("```")[0].strip().splitlines()
    assert len(lines) >= 5
    for line in lines:
        tokens = shlex.shlex(line, posix=True, punctuation_chars=True)
        # a control operator: ';', '&', '|' or a run of them
        assert not [t for t in tokens if t and set(t) <= set(";&|")], line


def test_cli_bad_pole_is_an_argument_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["synthesize", "--model", "cubic", "--poles=x"])
    assert exc.value.code == 2
    assert "bad pole 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_cli_stage_commands_take_no_scenario(command, capsys):
    # a whole scenario runs through `evuas run`
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--scenario", "tracking_demo"])
    assert exc.value.code == 2
    assert "--scenario" in capsys.readouterr().err
