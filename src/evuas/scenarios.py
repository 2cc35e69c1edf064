"""Scenario documents: schema validation, pipeline execution, manifests.

A scenario is one JSON document declaring what to run (stages in order:
classify, synthesize, simulate, verify) and with which model, disturbance
and design.  Artifacts are written to an output directory together with a
manifest that lists every file with its content hash; reruns with the same
seed produce byte-identical artifacts, timestamps live only in the
manifest.
"""

import csv
import hashlib
import json
import os
import platform
from datetime import datetime, timezone
from importlib import resources

import numpy as np
import scipy

from . import __version__ as _pkg_version
from .diminishing import SIGNAL_CATALOG, diminishing_profile, classify
from .errors import ScenarioError
from .model import MODEL_CATALOG, make_model
from .norms import NORM_IDS
from .perturbations import PERTURBATION_CATALOG, make_perturbation
from .simulate import (REFERENCE_CATALOG, diagnostics_to_json, make_reference,
                       simulate_closed_loop, simulate_error_dynamics,
                       simulate_tracking, trajectory_to_csv)
from .svgplot import line_plot
from .synthesis import (build_gamma, build_hurwitz, default_hurwitz,
                        linearize_and_place, synthesize_feedback)
from .verify import (make_closed_loop_factory, make_error_factory,
                     verify_evuas)

SCENARIO_PATH_ENV = "EVUAS_SCENARIO_PATH"
_STAGES = ("classify", "synthesize", "simulate", "verify")
_FORMATS = ("csv", "json", "svg")
_CSV_FMT = "%.17g"

_TOP_KEYS = {"name", "description", "seed", "norm", "outputs", "stages",
             "model", "perturbation", "design", "classify", "simulate",
             "verify"}


def _fail(field, msg):
    raise ScenarioError(f"{field}: {msg}", field=field)


def _req(doc, key, types, field, what):
    if key not in doc:
        _fail(f"{field}{key}", f"required {what}")
    return _typed(doc[key], types, f"{field}{key}", what)


def _typed(value, types, field, what):
    if types is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(field, f"expected {what}")
        return float(value)
    if types is int:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(field, f"expected {what}")
        return value
    if not isinstance(value, types):
        _fail(field, f"expected {what}")
    return value


def _number_list(value, field, what="list of numbers"):
    _typed(value, list, field, what)
    out = []
    for i, v in enumerate(value):
        out.append(_typed(v, float, f"{field}[{i}]", "number"))
    return out


def _pole(value, field):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value, 0.0)
    if isinstance(value, list) and len(value) == 2:
        re = _typed(value[0], float, f"{field}[0]", "number")
        im = _typed(value[1], float, f"{field}[1]", "number")
        return complex(re, im)
    _fail(field, "expected a number or an [re, im] pair")


def _matrix(value, field):
    _typed(value, list, field, "matrix (list of rows)")
    rows = []
    width = None
    for i, row in enumerate(value):
        r = _number_list(row, f"{field}[{i}]", "row of numbers")
        if width is None:
            width = len(r)
        elif len(r) != width:
            _fail(f"{field}[{i}]", f"ragged row (expected width {width})")
        rows.append(r)
    return np.asarray(rows, dtype=float)


def validate_scenario(doc):
    """Normalize and validate a scenario document; raises ScenarioError."""
    _typed(doc, dict, "", "JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            _fail(key, "unknown field")
    out = {}
    out["name"] = _req(doc, "name", str, "", "string")
    out["description"] = _typed(doc.get("description", ""), str,
                                "description", "string")
    out["seed"] = _typed(doc.get("seed", 0), int, "seed", "integer")
    out["norm"] = _typed(doc.get("norm", "euclidean"), str, "norm", "string")
    if out["norm"] not in NORM_IDS:
        _fail("norm", f"must be one of {NORM_IDS}")

    outputs = _typed(doc.get("outputs", {}), dict, "outputs", "object")
    formats = _typed(outputs.get("formats", ["csv", "json"]), list,
                     "outputs.formats", "list")
    for i, f in enumerate(formats):
        if f not in _FORMATS:
            _fail(f"outputs.formats[{i}]", f"must be one of {_FORMATS}")
    out["formats"] = list(dict.fromkeys(formats))

    stages = _typed(doc.get("stages", []), list, "stages", "list")
    for i, s in enumerate(stages):
        if s not in _STAGES:
            _fail(f"stages[{i}]", f"must be one of {_STAGES}")
        if s in _STAGES and s != "synthesize" and s not in doc:
            _fail(s, f"stage {s!r} is listed but has no configuration")
    out["stages"] = stages

    if "model" in doc:
        mc = _typed(doc["model"], dict, "model", "object")
        name = _req(mc, "name", str, "model.", "string")
        if name not in MODEL_CATALOG:
            _fail("model.name", f"unknown model (catalog: {sorted(MODEL_CATALOG)})")
        m = _typed(mc.get("m", 1), int, "model.m", "integer")
        n = _typed(mc.get("n", 2), int, "model.n", "integer")
        if m < 1:
            _fail("model.m", "must be >= 1")
        if n < 1:
            _fail("model.n", "must be >= 1")
        out["model"] = {"name": name, "m": m, "n": n}

    if "perturbation" in doc:
        pc = _typed(doc["perturbation"], dict, "perturbation", "object")
        name = _req(pc, "name", str, "perturbation.", "string")
        if name not in PERTURBATION_CATALOG:
            _fail("perturbation.name",
                  f"unknown perturbation (catalog: {sorted(PERTURBATION_CATALOG)})")
        entry = {"name": name}
        if "dim" in pc:
            dim = _typed(pc["dim"], int, "perturbation.dim", "integer")
            if dim < 1:
                _fail("perturbation.dim", "must be >= 1")
            entry["dim"] = dim
        out["perturbation"] = entry

    if "design" in doc:
        dc = _typed(doc["design"], dict, "design", "object")
        mode = _typed(dc.get("mode", "implicit"), str, "design.mode", "string")
        if mode not in ("implicit", "linear"):
            _fail("design.mode", "must be 'implicit' or 'linear'")
        design = {"mode": mode}
        if "poles" in dc:
            poles = _typed(dc["poles"], list, "design.poles", "list")
            if mode == "implicit":
                cols = []
                for j, col in enumerate(poles):
                    col = _typed(col, list, f"design.poles[{j}]",
                                 "list of poles")
                    cols.append([_pole(p, f"design.poles[{j}][{i}]")
                                 for i, p in enumerate(col)])
                design["poles"] = cols
            else:
                design["poles"] = [_pole(p, f"design.poles[{i}]")
                                   for i, p in enumerate(poles)]
        if "a_h" in dc:
            if dc["a_h"] == "default":
                design["a_h"] = "default"
            else:
                design["a_h"] = _matrix(dc["a_h"], "design.a_h")
        out["design"] = design

    if "classify" in doc:
        cc = _typed(doc["classify"], dict, "classify", "object")
        cfg = {
            "probe_radius": _typed(cc.get("probe_radius", 1.0), float,
                                   "classify.probe_radius", "number"),
            "t_horizon": _typed(cc.get("t_horizon", 20.0), float,
                                "classify.t_horizon", "number"),
            "quad_tol": _typed(cc.get("quad_tol", 1e-8), float,
                               "classify.quad_tol", "number"),
        }
        if cfg["probe_radius"] <= 0:
            _fail("classify.probe_radius", "must be positive")
        if cfg["t_horizon"] <= 0:
            _fail("classify.t_horizon", "must be positive")
        if cfg["quad_tol"] <= 0:
            _fail("classify.quad_tol", "must be positive")
        if "profile_grid" in cc:
            grid = _number_list(cc["profile_grid"], "classify.profile_grid")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                _fail("classify.profile_grid", "must be strictly increasing")
            cfg["profile_grid"] = grid
        out["classify"] = cfg

    if "simulate" in doc:
        sc = _typed(doc["simulate"], dict, "simulate", "object")
        kind = _req(sc, "kind", str, "simulate.", "string")
        if kind not in ("error", "closed-loop", "tracking"):
            _fail("simulate.kind",
                  "must be 'error', 'closed-loop' or 'tracking'")
        cfg = {"kind": kind,
               "t0": _typed(sc.get("t0", 0.0), float, "simulate.t0", "number"),
               "t_end": _req(sc, "t_end", float, "simulate.", "number"),
               "tol": _typed(sc.get("tol", 1e-7), float, "simulate.tol",
                             "number")}
        if cfg["t_end"] <= cfg["t0"]:
            _fail("simulate.t_end", "must exceed simulate.t0")
        if cfg["tol"] <= 0:
            _fail("simulate.tol", "must be positive")
        if kind == "error":
            cfg["e0"] = _number_list(_req(sc, "e0", list, "simulate.",
                                          "list of numbers"), "simulate.e0")
        else:
            cfg["x0"] = _number_list(_req(sc, "x0", list, "simulate.",
                                          "list of numbers"), "simulate.x0")
        if kind == "tracking":
            ref = _typed(sc.get("reference", "sin_cos"), str,
                         "simulate.reference", "string")
            if ref not in REFERENCE_CATALOG:
                _fail("simulate.reference",
                      f"unknown reference (catalog: {sorted(REFERENCE_CATALOG)})")
            cfg["reference"] = ref
        if "samples" in sc:
            cfg["samples"] = _typed(sc["samples"], int, "simulate.samples",
                                    "integer")
            if cfg["samples"] < 2:
                _fail("simulate.samples", "must be >= 2")
        out["simulate"] = cfg

    if "verify" in doc:
        vc = _typed(doc["verify"], dict, "verify", "object")
        target = _typed(vc.get("target", "error"), str, "verify.target",
                        "string")
        if target not in ("error", "closed-loop"):
            _fail("verify.target", "must be 'error' or 'closed-loop'")
        eps = _number_list(_req(vc, "eps_levels", list, "verify.", "list"),
                           "verify.eps_levels")
        if any(e <= 0 for e in eps) or \
                any(b >= a for a, b in zip(eps, eps[1:])):
            _fail("verify.eps_levels",
                  "must be positive and strictly decreasing")
        cfg = {
            "target": target,
            "delta0": _req(vc, "delta0", float, "verify.", "number"),
            "t0_grid": _number_list(_req(vc, "t0_grid", list, "verify.",
                                         "list"), "verify.t0_grid"),
            "eps_levels": eps,
            "horizon": _req(vc, "horizon", float, "verify.", "number"),
            "samples": _typed(vc.get("samples", 6), int, "verify.samples",
                              "integer"),
            "tol": _typed(vc.get("tol", 1e-6), float, "verify.tol", "number"),
        }
        if cfg["delta0"] <= 0:
            _fail("verify.delta0", "must be positive")
        if not cfg["t0_grid"]:
            _fail("verify.t0_grid", "must not be empty")
        if cfg["horizon"] <= 0:
            _fail("verify.horizon", "must be positive")
        if cfg["samples"] < 1:
            _fail("verify.samples", "must be >= 1")
        if cfg["tol"] <= 0:
            _fail("verify.tol", "must be positive")
        out["verify"] = cfg

    for stage in out["stages"]:
        if stage != "synthesize" and stage not in out:
            _fail(stage, f"stage {stage!r} is listed but has no configuration")
    return out


# ---------------------------------------------------------------------------
# scenario lookup


def _bundled_scenarios():
    root = resources.files("evuas").joinpath("scenario_files")
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry
    return out


def _user_dirs(extra_dirs=None):
    dirs = list(extra_dirs or [])
    env = os.environ.get(SCENARIO_PATH_ENV, "")
    dirs.extend(p for p in env.split(":") if p)
    return dirs


def list_scenarios(extra_dirs=None):
    """(name, description, origin) rows for bundled plus user scenarios."""
    rows = []
    for name, entry in _bundled_scenarios().items():
        doc = json.loads(entry.read_text(encoding="utf-8"))
        rows.append((name, doc.get("description", ""), "bundled"))
    for d in _user_dirs(extra_dirs):
        if not os.path.isdir(d):
            continue
        for fn in sorted(os.listdir(d)):
            if fn.endswith(".json"):
                try:
                    with open(os.path.join(d, fn), encoding="utf-8") as fh:
                        doc = json.load(fh)
                    desc = doc.get("description", "")
                except (OSError, json.JSONDecodeError):
                    desc = "(unreadable)"
                rows.append((fn[:-5], desc, d))
    return rows


def load_scenario(source, extra_dirs=None):
    """Resolve a scenario by dict, file path, or catalog name."""
    if isinstance(source, dict):
        return validate_scenario(source)
    source = str(source)
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"invalid JSON in {source}: {exc}",
                                    field="") from exc
        return validate_scenario(doc)
    for d in _user_dirs(extra_dirs):
        path = os.path.join(d, source + ".json")
        if os.path.isfile(path):
            return load_scenario(path)
    bundled = _bundled_scenarios()
    if source in bundled:
        return validate_scenario(
            json.loads(bundled[source].read_text(encoding="utf-8")))
    raise ScenarioError(
        f"scenario {source!r} is neither a file nor a known name "
        f"(bundled: {sorted(bundled)})", field="name")


# ---------------------------------------------------------------------------
# execution


def _config_hash(doc):
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, complex):
            return [o.real, o.imag]
        raise TypeError(f"unserializable {type(o)}")
    blob = json.dumps(doc, sort_keys=True, default=default).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_json(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_profile_csv(path, prof, bound_fn=None):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"] + (["bound"] if bound_fn else []))
        for t, v in zip(prof.t_grid, prof.values):
            row = [_CSV_FMT % t, _CSV_FMT % v]
            if bound_fn:
                row.append(_CSV_FMT % float(bound_fn(t)))
            writer.writerow(row)


class _Run:
    """One scenario execution: resolved objects plus emitted artifacts."""

    def __init__(self, doc, out_dir):
        self.doc = doc
        self.out_dir = out_dir
        self.artifacts = []
        self.results = {}
        self.controller = None
        self._model = None
        self._pert = None

    def path(self, name):
        self.artifacts.append(name)
        return os.path.join(self.out_dir, name)

    @property
    def model(self):
        if self._model is None:
            cfg = self.doc.get("model")
            if cfg is None:
                raise ScenarioError("stage needs a model section",
                                    field="model")
            self._model = make_model(cfg["name"], m=cfg["m"], n=cfg["n"])
        return self._model

    def pert(self, state_dim=None):
        if self._pert is None:
            cfg = self.doc.get("perturbation")
            if cfg is None:
                return None
            self._pert = make_perturbation(cfg["name"], dim=cfg.get("dim"),
                                           state_dim=state_dim)
        return self._pert

    def hurwitz(self, m):
        design = self.doc.get("design", {})
        a_h = design.get("a_h", "default")
        return default_hurwitz(m) if isinstance(a_h, str) else build_hurwitz(a_h)

    def gamma_design(self):
        design = self.doc.get("design", {})
        if "poles" not in design or design.get("mode") != "implicit":
            raise ScenarioError("implicit design needs design.poles "
                                "(per-column lists)", field="design.poles")
        return build_gamma(design["poles"], self.model.n)


def _stage_classify(run):
    doc = run.doc
    cfg = doc["classify"]
    pert = run.pert()
    if pert is None:
        raise ScenarioError("classify stage needs a perturbation section",
                            field="perturbation")
    cls = classify(pert, cfg["probe_radius"], cfg["t_horizon"],
                   quad_tol=cfg["quad_tol"], norm=doc["norm"],
                   seed=doc["seed"],
                   profile_grid=cfg.get("profile_grid"))
    run.results["classification"] = cls
    _write_json(run.path("classification.json"), cls.to_dict())
    for j, prof in enumerate(cls.column_profiles):
        _write_profile_csv(run.path(f"profile_col{j}.csv"), prof)
    if pert.kind == "time":
        sig = SIGNAL_CATALOG.get(pert.flags.get("signal", pert.name))
        grid = cfg.get("profile_grid")
        if grid is None:
            grid = cls.column_profiles[0].t_grid
        prof = diminishing_profile(pert.w, np.asarray(grid, dtype=float),
                                   quad_tol=cfg["quad_tol"], norm=doc["norm"],
                                   freq_hint=pert.freq_hint)
        bound = sig.bound if sig is not None else None
        _write_profile_csv(run.path("signal_profile.csv"), prof,
                           bound_fn=bound)
        run.results["signal_profile"] = prof
        if "svg" in doc["formats"]:
            series = [prof.values.tolist()]
            labels = ["window metric"]
            if bound is not None:
                series.append([float(bound(t)) for t in prof.t_grid])
                labels.append("analytic bound")
            line_plot(run.path("signal_profile.svg"), prof.t_grid.tolist(),
                      series, labels=labels,
                      title=f"windowed integral metric: {pert.name}",
                      ylabel="sup |integral|")


def _stage_synthesize(run):
    doc = run.doc
    design = doc.get("design")
    if design is None:
        raise ScenarioError("synthesize stage needs a design section",
                            field="design")
    if design["mode"] == "linear":
        if "poles" not in design:
            raise ScenarioError("linear design needs design.poles",
                                field="design.poles")
        ctrl = linearize_and_place(run.model, design["poles"])
    else:
        ctrl = synthesize_feedback(run.model, run.gamma_design(),
                                   run.hurwitz(run.model.m))
    run.controller = ctrl
    run.results["controller"] = ctrl
    _write_json(run.path("controller.json"), ctrl.to_summary())


def _stage_simulate(run):
    doc = run.doc
    cfg = doc["simulate"]
    samples = None
    if "samples" in cfg:
        samples = np.linspace(cfg["t0"], cfg["t_end"], cfg["samples"])
    if cfg["kind"] == "error":
        m = len(cfg["e0"])
        pert = run.pert(state_dim=m)
        traj = simulate_error_dynamics(
            run.hurwitz(m), pert, cfg["e0"], cfg["t0"], cfg["t_end"],
            tol=cfg["tol"], sample_times=samples, norm=doc["norm"])
    elif cfg["kind"] == "closed-loop":
        model = run.model
        pert = run.pert(state_dim=model.state_dim)
        ctrl = run.controller
        if ctrl is None:
            ctrl = synthesize_feedback(model, run.gamma_design(),
                                       run.hurwitz(model.m))
        traj = simulate_closed_loop(
            model, ctrl, pert, cfg["x0"], cfg["t0"], cfg["t_end"],
            tol=cfg["tol"], sample_times=samples, norm=doc["norm"])
    else:
        model = run.model
        pert = run.pert(state_dim=model.state_dim)
        ref = make_reference(cfg["reference"], m=model.m, n=model.n)
        traj = simulate_tracking(
            model, run.gamma_design(), run.hurwitz(model.m), ref, pert,
            cfg["x0"], cfg["t0"], cfg["t_end"], tol=cfg["tol"],
            sample_times=samples, norm=doc["norm"])
    run.results["trajectory"] = traj
    trajectory_to_csv(traj, run.path("trajectory.csv"))
    diagnostics_to_json(traj, run.path("trajectory_diagnostics.json"))
    if "svg" in doc["formats"]:
        series = [traj.states[:, i].tolist()
                  for i in range(min(traj.dim, 4))]
        labels = [f"x_{i + 1}" for i in range(len(series))]
        series.append(traj.norms().tolist())
        labels.append("norm")
        line_plot(run.path("trajectory.svg"), traj.times.tolist(), series,
                  labels=labels, title=f"{doc['name']}: {cfg['kind']}",
                  ylabel="state")


def _stage_verify(run):
    doc = run.doc
    cfg = doc["verify"]
    if cfg["target"] == "error":
        sizes = []
        if "simulate" in doc and doc["simulate"]["kind"] == "error":
            sizes.append(len(doc["simulate"]["e0"]))
        design = doc.get("design", {})
        a_h = design.get("a_h", "default")
        if not isinstance(a_h, str):
            sizes.append(np.asarray(a_h).shape[0])
        pc = doc.get("perturbation")
        if pc and "dim" in pc:
            sizes.append(pc["dim"])
        if not sizes:
            pert_probe = run.pert()
            if pert_probe is not None:
                sizes.append(pert_probe.dim)
        if not sizes:
            raise ScenarioError(
                "cannot infer the error-system dimension; give design.a_h "
                "or perturbation.dim", field="verify")
        dim = sizes[0]
        pert = run.pert(state_dim=dim)
        factory = make_error_factory(run.hurwitz(dim), pert, cfg["horizon"],
                                     tol=cfg["tol"])
    else:
        model = run.model
        pert = run.pert(state_dim=model.state_dim)
        ctrl = run.controller
        if ctrl is None:
            ctrl = synthesize_feedback(model, run.gamma_design(),
                                       run.hurwitz(model.m))
        dim = model.state_dim
        factory = make_closed_loop_factory(model, ctrl, pert, cfg["horizon"],
                                           tol=cfg["tol"])
    report = verify_evuas(factory, cfg["delta0"], cfg["t0_grid"],
                          cfg["eps_levels"], cfg["horizon"],
                          samples=cfg["samples"], seed=doc["seed"], dim=dim,
                          norm=doc["norm"])
    run.results["report"] = report
    _write_json(run.path("stability_report.json"), report.to_dict())


_STAGE_FNS = {"classify": _stage_classify, "synthesize": _stage_synthesize,
              "simulate": _stage_simulate, "verify": _stage_verify}


def run_scenario(source, out_dir, seed=None, tol=None, norm=None,
                 formats=None, extra_dirs=None):
    """Execute a scenario and write its artifacts plus a manifest.

    Overrides (seed, tol, norm, formats) are applied to the validated
    document before execution and therefore participate in the config
    hash.  Returns a summary dict with the resolved document, the emitted
    artifact names and the in-memory stage results.
    """
    doc = load_scenario(source, extra_dirs=extra_dirs)
    if seed is not None:
        doc["seed"] = int(seed)
    if norm is not None:
        if norm not in NORM_IDS:
            raise ScenarioError(f"norm: must be one of {NORM_IDS}",
                                field="norm")
        doc["norm"] = norm
    if formats is not None:
        for f in formats:
            if f not in _FORMATS:
                raise ScenarioError(
                    f"outputs.formats: must be one of {_FORMATS}",
                    field="outputs.formats")
        doc["formats"] = list(dict.fromkeys(formats))
    if tol is not None:
        if "simulate" in doc:
            doc["simulate"]["tol"] = float(tol)
        if "verify" in doc:
            doc["verify"]["tol"] = float(tol)

    os.makedirs(out_dir, exist_ok=True)
    run = _Run(doc, out_dir)
    for stage in doc["stages"]:
        try:
            _STAGE_FNS[stage](run)
        except ScenarioError:
            raise
        except Exception as exc:
            raise RuntimeError(f"stage {stage!r} failed: {exc}") from exc

    manifest = {
        "name": doc["name"],
        "config_hash": _config_hash(doc),
        "seed": doc["seed"],
        "versions": {
            "evuas": _pkg_version,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "artifacts": [],
        "created": datetime.now(timezone.utc).isoformat(),
    }
    for name in run.artifacts:
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            blob = fh.read()
        manifest["artifacts"].append({
            "path": name,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": len(blob),
        })
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return {"doc": doc, "out_dir": out_dir, "artifacts": run.artifacts,
            "results": run.results, "manifest": manifest}
