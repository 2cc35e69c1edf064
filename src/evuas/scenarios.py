"""Scenario documents: schema validation, pipeline execution, manifests.

A scenario is one JSON document declaring what to run (stages in order:
classify, synthesize, simulate, verify) and with which model, disturbance
and design.  ``_SCHEMA`` declares every field once, with its parser,
default and bounds, and rejects any field it does not list or that the
section's kind or mode does not use.  :func:`validate_scenario` adds the
rules relating fields and what each stage needs (``_NEEDS``): classify a
perturbation; synthesize, a closed-loop or tracking simulate and a
closed-loop verify a model and design.poles, tracking in implicit mode;
an error verify a matrix design.a_h, simulate.e0 or a perturbation to
size the error system.  It builds the catalog entries named, so every
document error is a ScenarioError naming the field, raised before any
stage runs.  The controller follows design.mode with or without a
synthesize stage; a stage builds it, so a design it rejects fails there.

Artifacts are written to an output directory together with a manifest
that lists every file with its content hash; reruns with the same seed
produce byte-identical artifacts, timestamps live only in the manifest.
"""

import csv
import dataclasses
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

from . import __version__ as _pkg_version
from .diminishing import SIGNAL_CATALOG, diminishing_profile, classify
from .errors import ScenarioError
from .model import MODEL_CATALOG, make_model
from .norms import NORM_IDS
from .perturbations import PERTURBATION_CATALOG, make_perturbation
from .simulate import (_CSV_FMT, REFERENCE_CATALOG, _write_json,
                       diagnostics_to_json, make_reference,
                       simulate_closed_loop, simulate_error_dynamics,
                       simulate_tracking, trajectory_to_csv)
from .svgplot import line_plot
from .synthesis import (build_gamma, build_hurwitz, default_hurwitz,
                        linearize_and_place, synthesize_feedback)
from .verify import (make_closed_loop_factory, make_error_factory,
                     verify_evuas)

SCENARIO_PATH_ENV = "EVUAS_SCENARIO_PATH"
_STAGES = ("classify", "synthesize", "simulate", "verify")
# the sections and fields each stage reads: by stage, then by stage and the
# kind (simulate) or target (verify) of its section
_LOOP = ("model", "design.poles")
_NEEDS = {"classify": ("classify", "perturbation"), "synthesize": _LOOP,
          "simulate": ("simulate",), "verify": ("verify",),
          ("simulate", "closed-loop"): _LOOP, ("simulate", "tracking"): _LOOP,
          ("verify", "closed-loop"): _LOOP}
_FORMATS = ("csv", "json", "svg")
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
    _Field("stages", _list_of(_one_of(_STAGES)), []),
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


def _catalog(field, make, *args, **kwargs):
    """A catalog entry; a shape the entry does not have (its ValueError)
    is a ScenarioError on ``field``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{field}: {exc}", field=field) from exc


def _resolve(doc):
    """The run of a scenario document: the validated document and the
    objects it resolves to; raises ScenarioError."""
    out = _SCHEMA(doc, "")
    out["formats"] = list(dict.fromkeys(out.pop("outputs")["formats"]))
    design = out.get("design", {})
    sim = out.get("simulate", {})
    a_h = None if isinstance(design.get("a_h", ""), str) else design["a_h"]
    if sim:
        if sim["t_end"] <= sim["t0"]:
            _fail("simulate.t_end", "must exceed simulate.t0")
        if "e0" in sim and a_h is not None and len(sim["e0"]) != len(a_h):
            _fail("simulate.e0", f"must have {len(a_h)} entries, the size "
                                 "of design.a_h")
    model = pert = reference = None
    if "model" in out:
        model = _catalog("model.m", make_model, **out["model"])
    if "perturbation" in out:
        pert = _catalog("perturbation.dim", make_perturbation,
                        **out["perturbation"])
    if "reference" in sim and model is not None:
        reference = _catalog("simulate.reference", make_reference,
                             sim["reference"], m=model.m, n=model.n)
    # the error system's size: a matrix a_h's, else e0's, else W's
    error_dim = len(a_h) if a_h is not None else len(sim["e0"]) \
        if "e0" in sim else getattr(pert, "dim", None)
    for stage in out["stages"]:
        section = out.get(stage, {})
        variant = section.get("kind", section.get("target"))
        who = f"stage {stage!r}" + (f" ({variant})" if variant else "")
        for path in _NEEDS[stage] + _NEEDS.get((stage, variant), ()):
            head, _, key = path.partition(".")
            if head not in out:
                _fail(head, f"{who} needs a {head} section")
            if key and key not in out[head]:
                _fail(path, f"{who} needs {path}")
        if variant == "tracking" and design["mode"] != "implicit":
            _fail("design.mode", f"{who} needs the implicit design")
        if (stage, variant, error_dim) == ("verify", "error", None):
            _fail("verify", "cannot infer the error-system dimension; "
                            "give design.a_h or a perturbation")
    return _Run(out, model, pert, reference, a_h, error_dim)


def validate_scenario(doc):
    """Normalize and validate a scenario document; raises ScenarioError on
    every document :func:`run_scenario` rejects.  Formats are deduplicated."""
    return _resolve(doc).doc


# ---------------------------------------------------------------------------
# scenario lookup


def _bundled_scenarios():
    root = resources.files("evuas").joinpath("scenario_files")
    return {entry.name[:-5]: entry
            for entry in sorted(root.iterdir(), key=lambda e: e.name)
            if entry.name.endswith(".json")}


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


def _write_profile_csv(path, prof, bound_fn=None):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"] + (["bound"] if bound_fn else []))
        for t, v in zip(prof.t_grid, prof.values):
            row = [_CSV_FMT % t, _CSV_FMT % v]
            if bound_fn:
                row.append(_CSV_FMT % float(bound_fn(t)))
            writer.writerow(row)


@dataclasses.dataclass
class _Run:
    """One scenario execution: the validated document, the objects it
    resolves to (None where absent), its controller and its artifacts."""

    doc: dict
    model: object
    pert: object
    reference: object
    a_h: object
    error_dim: int        # None where nothing gives it
    out_dir: str = None
    artifacts: list = dataclasses.field(default_factory=list)
    results: dict = dataclasses.field(default_factory=dict)
    _ctrl: object = None

    def path(self, name):
        self.artifacts.append(name)
        return os.path.join(self.out_dir, name)

    def hurwitz(self, m):
        return default_hurwitz(m) if self.a_h is None \
            else build_hurwitz(self.a_h)

    def controller(self):
        """The design's controller, built on first use: a gain placed on
        the linearization (design.mode linear) or the implicit feedback."""
        if self._ctrl is None:
            design = self.doc["design"]
            if design["mode"] == "linear":
                self._ctrl = linearize_and_place(self.model, design["poles"])
            else:
                self._ctrl = synthesize_feedback(
                    self.model, build_gamma(design["poles"], self.model.n),
                    self.hurwitz(self.model.m))
        return self._ctrl


def _stage_classify(run):
    doc = run.doc
    cfg = doc["classify"]
    pert = run.pert
    cls = classify(pert, cfg["probe_radius"], cfg["t_horizon"],
                   quad_tol=cfg["quad_tol"], norm=doc["norm"],
                   seed=doc["seed"],
                   profile_grid=cfg.get("profile_grid"))
    run.results["classification"] = cls
    _write_json(run.path("classification.json"), cls.to_dict())
    for j, prof in enumerate(cls.column_profiles):
        _write_profile_csv(run.path(f"profile_col{j}.csv"), prof)
    if pert.kind == "time":
        # a one-dimensional signal is its own column 0, profiled already
        prof = cls.column_profiles[0]
        if pert.dim > 1:
            prof = diminishing_profile(pert.w, prof.t_grid,
                                       quad_tol=cfg["quad_tol"],
                                       norm=doc["norm"],
                                       freq_hint=pert.freq_hint)
        bound = getattr(SIGNAL_CATALOG.get(pert.name), "bound", None)
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
    ctrl = run.results["controller"] = run.controller()
    _write_json(run.path("controller.json"), ctrl.to_summary())


def _stage_simulate(run):
    doc = run.doc
    cfg = doc["simulate"]
    samples = np.linspace(cfg["t0"], cfg["t_end"], cfg["samples"]) \
        if "samples" in cfg else None
    if cfg["kind"] == "error":
        traj = simulate_error_dynamics(
            run.hurwitz(run.error_dim), run.pert, cfg["e0"], cfg["t0"],
            cfg["t_end"], tol=cfg["tol"], sample_times=samples)
    elif cfg["kind"] == "closed-loop":
        traj = simulate_closed_loop(
            run.model, run.controller(), run.pert, cfg["x0"], cfg["t0"],
            cfg["t_end"], tol=cfg["tol"], sample_times=samples)
    else:
        traj = simulate_tracking(
            run.model, run.controller(), run.reference, run.pert, cfg["x0"],
            cfg["t0"], cfg["t_end"], tol=cfg["tol"], sample_times=samples)
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
        dim = run.error_dim
        factory = make_error_factory(run.hurwitz(dim), run.pert,
                                     cfg["horizon"], tol=cfg["tol"])
    else:
        dim = run.model.state_dim
        factory = make_closed_loop_factory(
            run.model, run.controller(), run.pert, cfg["horizon"],
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
    run = _resolve(doc)
    doc = run.doc

    os.makedirs(out_dir, exist_ok=True)
    run.out_dir = out_dir
    for stage in doc["stages"]:
        try:
            _STAGE_FNS[stage](run)
        except Exception as exc:
            raise RuntimeError(f"stage {stage!r} failed: {exc}") from exc

    manifest = {
        "name": doc["name"],
        "config_hash": _config_hash(doc),
        "seed": doc["seed"],
        "versions": {
            "evuas": _pkg_version,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "artifacts": [],
        "created": datetime.now(timezone.utc).isoformat(),
    }
    for name in run.artifacts:
        with open(os.path.join(out_dir, name), "rb") as fh:
            blob = fh.read()
        manifest["artifacts"].append({
            "path": name, "sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": len(blob)})
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return {"doc": doc, "out_dir": out_dir, "artifacts": run.artifacts,
            "results": run.results, "manifest": manifest}
