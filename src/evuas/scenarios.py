"""Scenario documents: schema validation, pipeline execution, manifests.

A scenario is one JSON document declaring what to run (stages in order:
classify, synthesize, simulate, verify) and with which model, disturbance
and design.  ``_SCHEMA`` declares every field once, with its parser,
default and bounds, and rejects any field it does not list or that the
section's kind or mode does not use; :func:`validate_scenario` adds the
rules that relate fields.  :func:`run_scenario` validates once, after its
overrides.  A validation failure, or a catalog entry asked for a shape it
does not have, is a ScenarioError naming the field.

Artifacts are written to an output directory together with a manifest
that lists every file with its content hash; reruns with the same seed
produce byte-identical artifacts, timestamps live only in the manifest.
"""

import csv
import hashlib
import json
import math
import numbers
import os
import platform
from datetime import datetime, timezone
from importlib import resources
from typing import NamedTuple

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
# the stages in their order, each with the sections it reads
_NEEDS = {"classify": ("classify", "perturbation"), "synthesize": ("design",),
          "simulate": ("simulate",), "verify": ("verify",)}
_FORMATS = ("csv", "json", "svg")
_CSV_FMT = "%.17g"
_REQUIRED = object()        # the default of a field that must be given


def _fail(field, msg):
    # the empty path is the document itself
    raise ScenarioError(f"{field or 'document'}: {msg}", field=field)


# ---------------------------------------------------------------------------
# field parsers: parse(value, path) returns the normalized value or fails
# naming the path


def _of_type(types, convert, what):
    """A value of ``types``, never a bool, passed through ``convert``."""
    def parse(value, path):
        if isinstance(value, bool) or not isinstance(value, types):
            _fail(path, f"expected {what}")
        return convert(value)
    return parse


def _one_of(choices):
    def parse(value, path):
        if not isinstance(value, str) or value not in choices:
            _fail(path, f"must be one of {tuple(choices)}")
        return value
    return parse


def _list_of(item):
    def parse(value, path):
        if not isinstance(value, list):
            _fail(path, "expected a list")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return parse


def _rule(parse, holds, what):
    """``parse``, then fail with "must be <what>" unless ``holds(value)``."""
    def checked(value, path):
        value = parse(value, path)
        if not holds(value):
            _fail(path, f"must be {what}")
        return value
    return checked


_number = _rule(_of_type(numbers.Real, float, "a number"), math.isfinite,
                "finite")
_integer = _of_type(numbers.Integral, int, "an integer")
_string = _of_type(str, str, "a string")


def _increasing(xs):
    return all(a < b for a, b in zip(xs, xs[1:]))


def _at_least(k):
    return _rule(_integer, lambda v: v >= k, f">= {k}")


_numbers = _list_of(_number)
_positive = _rule(_number, lambda v: v > 0, "positive")


def _pole(value, path):
    if not isinstance(value, list):
        return complex(_number(value, path))
    if len(value) != 2:
        _fail(path, "expected a number or an [re, im] pair")
    return complex(*_numbers(value, path))


def _matrix(value, path):
    rows = _list_of(_numbers)(value, path)
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            _fail(f"{path}[{i}]", f"ragged row (expected width "
                                  f"{len(rows[0])})")
    return np.asarray(rows, dtype=float)


_square = _rule(_matrix, lambda a: a.size > 0 and a.shape == (len(a),) * 2,
                "a square matrix")


def _a_h(value, path):
    return value if value == "default" else _square(value, path)


class _Field(NamedTuple):
    """One field of an object: ``parse`` normalizes a given value or
    ``default`` (None leaves an absent field out, _REQUIRED rejects its
    absence); ``only`` lists the values of the object's first field (its
    kind or mode) under which the field is used, empty for all."""

    key: str
    parse: object
    default: object = None
    only: tuple = ()


def _object(*fields):
    """Parser of an object holding ``fields`` and no other."""
    keys = {f.key for f in fields}

    def parse(doc, path):
        def at(key):
            return f"{path}.{key}" if path else key
        if not isinstance(doc, dict):
            _fail(path, "expected an object")
        for key in doc:
            if key not in keys:
                _fail(at(key), "unknown field")
        out = {}
        for f in fields:
            if f.only and out[fields[0].key] not in f.only:
                continue
            if f.key in doc:
                out[f.key] = f.parse(doc[f.key], at(f.key))
            elif f.default is _REQUIRED:
                _fail(at(f.key), "required field")
            elif f.default is not None:
                out[f.key] = f.parse(f.default, at(f.key))
        for key in doc:
            if key not in out:
                first = fields[0].key
                _fail(at(key), f"not used when {first} is {out[first]!r}")
        return out
    return parse


# The schema: every field of a scenario document, its parser, default and
# bounds.  An omitted section is left out of the validated document.
_SCHEMA = _object(
    _Field("name", _string, _REQUIRED),
    _Field("description", _string, ""),
    _Field("seed", _integer, 0),
    _Field("norm", _one_of(NORM_IDS), "euclidean"),
    _Field("outputs", _object(
        _Field("formats", _list_of(_one_of(_FORMATS)), ["csv", "json"])),
        {}),
    _Field("stages", _list_of(_one_of(_NEEDS)), []),
    _Field("model", _object(
        _Field("name", _one_of(MODEL_CATALOG), _REQUIRED),
        _Field("m", _at_least(1), 1),
        _Field("n", _at_least(1), 2))),
    _Field("perturbation", _object(
        _Field("name", _one_of(PERTURBATION_CATALOG), _REQUIRED),
        _Field("dim", _at_least(1)))),
    _Field("design", _object(
        _Field("mode", _one_of(("implicit", "linear")), "implicit"),
        # implicit: one list of poles per column of Gamma
        _Field("poles", _list_of(_list_of(_pole)), only=("implicit",)),
        _Field("poles", _list_of(_pole), _REQUIRED, only=("linear",)),
        _Field("a_h", _a_h))),
    _Field("classify", _object(
        _Field("probe_radius", _positive, 1.0),
        _Field("t_horizon", _positive, 20.0),
        _Field("quad_tol", _positive, 1e-8),
        _Field("profile_grid",
               _rule(_numbers, _increasing, "strictly increasing")))),
    _Field("simulate", _object(
        _Field("kind", _one_of(("error", "closed-loop", "tracking")),
               _REQUIRED),
        _Field("t0", _number, 0.0),
        _Field("t_end", _number, _REQUIRED),
        _Field("tol", _positive, 1e-7),
        _Field("e0", _numbers, _REQUIRED, only=("error",)),
        _Field("x0", _numbers, _REQUIRED, only=("closed-loop", "tracking")),
        _Field("reference", _one_of(REFERENCE_CATALOG), "sin_cos",
               only=("tracking",)),
        _Field("samples", _at_least(2)))),
    _Field("verify", _object(
        _Field("target", _one_of(("error", "closed-loop")), "error"),
        _Field("delta0", _positive, _REQUIRED),
        _Field("t0_grid", _rule(_numbers, len, "non-empty"), _REQUIRED),
        _Field("eps_levels",
               _rule(_numbers, lambda e: min(e, default=1) > 0
                     and _increasing(e[::-1]),
                     "positive and strictly decreasing"), _REQUIRED),
        _Field("horizon", _positive, _REQUIRED),
        _Field("samples", _at_least(1), 6),
        _Field("tol", _positive, 1e-6))),
)


def validate_scenario(doc):
    """Normalize and validate a scenario document; raises ScenarioError.

    Each field is checked by ``_SCHEMA``; the rules here relate fields to
    each other.  The output formats come back deduplicated at top level.
    """
    out = _SCHEMA(doc, "")
    out["formats"] = list(dict.fromkeys(out.pop("outputs")["formats"]))
    for stage in out["stages"]:
        for section in _NEEDS[stage]:
            if section not in out:
                _fail(section, f"stage {stage!r} needs a {section} section")
    sim = out.get("simulate")
    if sim is not None:
        if sim["t_end"] <= sim["t0"]:
            _fail("simulate.t_end", "must exceed simulate.t0")
        a_h = out.get("design", {}).get("a_h", "default")
        if "e0" in sim and not isinstance(a_h, str) \
                and len(sim["e0"]) != len(a_h):
            _fail("simulate.e0", f"must have {len(a_h)} entries, the size "
                                 "of design.a_h")
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
                    doc = _read_scenario(os.path.join(d, fn))
                except (OSError, ScenarioError):
                    doc = None
                desc = doc.get("description", "") \
                    if isinstance(doc, dict) else "(unreadable)"
                rows.append((fn[:-5], desc, d))
    return rows


def _read_scenario(source, extra_dirs=None):
    """The raw document of a scenario given as a dict, a file path or a
    catalog name."""
    if isinstance(source, dict):
        return source
    source = str(source)
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as fh:
            try:
                return json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ScenarioError(f"invalid JSON in {source}: {exc}",
                                    field="") from exc
    for d in _user_dirs(extra_dirs):
        path = os.path.join(d, source + ".json")
        if os.path.isfile(path):
            return _read_scenario(path)
    bundled = _bundled_scenarios()
    if source in bundled:
        return json.loads(bundled[source].read_text(encoding="utf-8"))
    raise ScenarioError(
        f"scenario {source!r} is neither a file nor a known name "
        f"(bundled: {sorted(bundled)})", field="name")


def load_scenario(source, extra_dirs=None):
    """Resolve a scenario by dict, file path, or catalog name; validated."""
    return validate_scenario(_read_scenario(source, extra_dirs))


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


def _catalog(field, make, *args, **kwargs):
    """A catalog entry; a shape the entry does not have (its ValueError)
    is a ScenarioError on ``field``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{field}: {exc}", field=field) from exc


class _Run:
    """One scenario execution: resolved objects plus emitted artifacts."""

    def __init__(self, doc, out_dir):
        self.doc = doc
        self.out_dir = out_dir
        self.artifacts = []
        self.results = {}
        self.ctrl = None
        self._model = None
        self._pert = None
        a_h = doc.get("design", {}).get("a_h", "default")
        self.a_h = None if isinstance(a_h, str) else a_h    # None: default

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
            self._model = _catalog("model.m", make_model, cfg["name"],
                                   m=cfg["m"], n=cfg["n"])
        return self._model

    def pert(self):
        cfg = self.doc.get("perturbation")
        if self._pert is None and cfg is not None:
            self._pert = _catalog("perturbation.dim", make_perturbation,
                                  cfg["name"], dim=cfg.get("dim"))
        return self._pert

    def error_dim(self):
        """The error system's size: that of a matrix design.a_h, else the
        length of an error run's e0, else the perturbation's dim."""
        if self.a_h is not None:
            return len(self.a_h)
        if "e0" in self.doc.get("simulate", {}):
            return len(self.doc["simulate"]["e0"])
        if self.pert() is None:
            raise ScenarioError(
                "cannot infer the error-system dimension; give design.a_h "
                "or a perturbation", field="verify")
        return self.pert().dim

    def hurwitz(self, m):
        if self.a_h is None:
            return default_hurwitz(m)
        return build_hurwitz(self.a_h)

    def gamma_design(self):
        design = self.doc.get("design", {})
        if "poles" not in design or design.get("mode") != "implicit":
            raise ScenarioError("implicit design needs design.poles "
                                "(per-column lists)", field="design.poles")
        return build_gamma(design["poles"], self.model.n)

    def controller(self):
        """The synthesize stage's controller, else the implicit design's."""
        if self.ctrl is None:
            self.ctrl = synthesize_feedback(self.model, self.gamma_design(),
                                            self.hurwitz(self.model.m))
        return self.ctrl


def _stage_classify(run):
    doc = run.doc
    cfg = doc["classify"]
    pert = run.pert()
    cls = classify(pert, cfg["probe_radius"], cfg["t_horizon"],
                   quad_tol=cfg["quad_tol"], norm=doc["norm"],
                   seed=doc["seed"],
                   profile_grid=cfg.get("profile_grid"))
    run.results["classification"] = cls
    _write_json(run.path("classification.json"), cls.to_dict())
    for j, prof in enumerate(cls.column_profiles):
        _write_profile_csv(run.path(f"profile_col{j}.csv"), prof)
    if pert.kind == "time":
        sig = SIGNAL_CATALOG.get(pert.name)
        # a one-dimensional signal is its own column 0, profiled already
        prof = cls.column_profiles[0]
        if pert.dim > 1:
            prof = diminishing_profile(pert.w, prof.t_grid,
                                       quad_tol=cfg["quad_tol"],
                                       norm=doc["norm"],
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
    design = run.doc["design"]
    if design["mode"] == "linear":
        run.ctrl = linearize_and_place(run.model, design["poles"])
    run.results["controller"] = run.controller()
    _write_json(run.path("controller.json"), run.ctrl.to_summary())


def _stage_simulate(run):
    doc = run.doc
    cfg = doc["simulate"]
    samples = None
    if "samples" in cfg:
        samples = np.linspace(cfg["t0"], cfg["t_end"], cfg["samples"])
    if cfg["kind"] == "error":
        dim = run.error_dim()
        traj = simulate_error_dynamics(
            run.hurwitz(dim), run.pert(), cfg["e0"], cfg["t0"], cfg["t_end"],
            tol=cfg["tol"], sample_times=samples)
    elif cfg["kind"] == "closed-loop":
        model = run.model
        traj = simulate_closed_loop(
            model, run.controller(), run.pert(), cfg["x0"], cfg["t0"],
            cfg["t_end"], tol=cfg["tol"], sample_times=samples)
    else:
        model = run.model
        ref = _catalog("simulate.reference", make_reference,
                       cfg["reference"], m=model.m, n=model.n)
        traj = simulate_tracking(
            model, run.gamma_design(), run.hurwitz(model.m), ref, run.pert(),
            cfg["x0"], cfg["t0"], cfg["t_end"], tol=cfg["tol"],
            sample_times=samples)
    run.results["trajectory"] = traj
    trajectory_to_csv(traj, run.path("trajectory.csv"), norm=doc["norm"])
    diagnostics_to_json(traj, run.path("trajectory_diagnostics.json"))
    if "svg" in doc["formats"]:
        series = [traj.states[:, i].tolist()
                  for i in range(min(traj.dim, 4))]
        labels = [f"x_{i + 1}" for i in range(len(series))]
        series.append(traj.norms(doc["norm"]).tolist())
        labels.append("norm")
        line_plot(run.path("trajectory.svg"), traj.times.tolist(), series,
                  labels=labels, title=f"{doc['name']}: {cfg['kind']}",
                  ylabel="state")


def _stage_verify(run):
    doc = run.doc
    cfg = doc["verify"]
    if cfg["target"] == "error":
        dim = run.error_dim()
        factory = make_error_factory(run.hurwitz(dim), run.pert(),
                                     cfg["horizon"], tol=cfg["tol"])
    else:
        model = run.model
        dim = model.state_dim
        factory = make_closed_loop_factory(
            model, run.controller(), run.pert(), cfg["horizon"],
            tol=cfg["tol"])
    report = verify_evuas(factory, cfg["delta0"], cfg["t0_grid"],
                          cfg["eps_levels"], cfg["horizon"],
                          samples=cfg["samples"], seed=doc["seed"], dim=dim,
                          norm=doc["norm"])
    run.results["report"] = report
    _write_json(run.path("stability_report.json"), report.to_dict())


_STAGE_FNS = {"classify": _stage_classify, "synthesize": _stage_synthesize,
              "simulate": _stage_simulate, "verify": _stage_verify}


def _with(section, **fields):
    """A copy of an object with the given fields that are not None; a
    section that is not an object is left for validation to reject."""
    if not isinstance(section, dict):
        return section
    return {**section, **{k: v for k, v in fields.items() if v is not None}}


def run_scenario(source, out_dir, seed=None, tol=None, norm=None,
                 formats=None, extra_dirs=None):
    """Execute a scenario and write its artifacts plus a manifest.

    Overrides (seed, tol, norm, formats) are applied to the document and
    validated with it, so they participate in the config hash; tol applies
    to the simulate and verify sections present.  Returns a summary dict
    with the resolved document, the emitted artifact names and the
    in-memory stage results.
    """
    doc = _read_scenario(source, extra_dirs)
    if isinstance(doc, dict):       # else validation rejects it
        doc = _with(doc, seed=seed, norm=norm)
        if formats is not None:
            doc["outputs"] = _with(doc.get("outputs", {}),
                                   formats=list(formats))
        for stage in ("simulate", "verify"):
            if stage in doc:
                doc[stage] = _with(doc[stage], tol=tol)
    doc = validate_scenario(doc)

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
