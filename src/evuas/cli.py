"""Command-line front end.

Subcommands mirror the pipeline stages; each flag-driven subcommand builds
a scenario document and hands it to the scenario runner, so CLI runs and
scenario-file runs share one code path (and one reproducibility story).
A document holds the flags given, plus CLI defaults for ``simulate
--kind/--t-end/--model/--poles/--a-h`` and ``verify --delta0/--t0-grid/
--eps-levels/--horizon/--a-h`` (``--a-h`` writes "default", the default
Hurwitz matrix).  No command runs bare: ``classify`` needs
``--perturbation``, ``synthesize`` ``--model`` and ``--poles``,
``simulate`` ``--e0`` (``--x0`` for a closed-loop or tracking run), and
``verify`` a matrix ``--a-h`` or a ``--perturbation`` to size the error
system; without them a command exits 2.  The schema in
:mod:`evuas.scenarios` supplies the defaults of every other field, and
it validates the overrides (``--seed``, ``--tol``, ``--norm``,
``--format``) like document fields.  Exit codes: 0 success, 1
pipeline-stage failure, 2 invalid scenario or arguments (the message
names the field).
"""

import argparse
import sys

from .errors import ScenarioError
from .model import MODEL_CATALOG
from .norms import NORM_IDS
from .perturbations import PERTURBATION_CATALOG
from .simulate import REFERENCE_CATALOG
from .scenarios import (_DESIGN_MODES, _FORMATS, _SIMULATE_KINDS,
                        list_scenarios, run_scenario)


def _parse_pole(token):
    token = token.strip()
    try:
        z = complex(token.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad pole {token!r}")
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _parse_rows(spec, parse=float):
    # rows (pole columns) split by ';', entries inside a row by ','
    return [[parse(tok) for tok in row.split(",") if tok.strip()]
            for row in spec.split(";") if row.strip()]


def _parse_poles(spec):
    return _parse_rows(spec, _parse_pole)


def _parse_floats(spec):
    return [float(tok) for tok in spec.split(",") if tok.strip()]


def _parse_matrix(spec):
    return "default" if spec.strip() == "default" else _parse_rows(spec)


def _common_flags(sub):
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--seed", type=int, help="override seed")
    sub.add_argument("--tol", type=float,
                     help="override integration tolerance")
    sub.add_argument("--norm", choices=NORM_IDS)
    sub.add_argument("--format", dest="formats", action="append",
                     choices=_FORMATS,
                     help="artifact formats (repeatable)")


def _scenario_dir_flag(sub):
    sub.add_argument("--scenario-dir", dest="scenario_dirs", action="append",
                     default=[], help="extra scenario directory (repeatable)")


def _run(doc_or_source, args):
    try:
        summary = run_scenario(doc_or_source, args.out, seed=args.seed,
                               tol=args.tol, norm=args.norm,
                               formats=args.formats,
                               extra_dirs=getattr(args, "scenario_dirs",
                                                  None))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in summary["artifacts"] + ["manifest.json"]:
        print(f"wrote {summary['out_dir']}/{name}")
    return 0


def _cmd_list(args):
    for title, catalog in (("models", MODEL_CATALOG),
                           ("perturbations", PERTURBATION_CATALOG),
                           ("references", REFERENCE_CATALOG)):
        print(f"{title}:")
        for name, (_, desc) in sorted(catalog.items()):
            print(f"  {name:<22} {desc}")
    print("scenarios:")
    for name, desc, origin in list_scenarios(args.scenario_dirs):
        print(f"  {name:<26} [{origin}] {desc}")
    return 0


def _cmd_run(args):
    return _run(args.scenario, args)


def _given(**fields):
    """The fields whose flags were given; the scenario schema supplies
    the defaults of the rest."""
    return {k: v for k, v in fields.items() if v is not None}


def _cmd_classify(args):
    doc = {
        "name": f"classify_{args.perturbation}",
        "stages": ["classify"],
        "perturbation": _given(name=args.perturbation, dim=args.dim),
        "classify": _given(probe_radius=args.probe_radius,
                           t_horizon=args.t_horizon, quad_tol=args.quad_tol,
                           profile_grid=args.grid),
    }
    return _run(doc, args)


def _cmd_synthesize(args):
    if args.mode == "linear":
        design = {"poles": [p for col in args.poles for p in col]}
    else:
        design = {"poles": args.poles, "a_h": args.a_h}
    doc = {
        "name": f"synthesize_{args.model}",
        "stages": ["synthesize"],
        "model": _given(name=args.model, m=args.m, n=args.n),
        "design": _given(mode=args.mode, **design),
    }
    return _run(doc, args)


def _cmd_simulate(args):
    doc = {
        "name": "simulate_cli",
        "stages": ["simulate"],
        "simulate": _given(kind=args.kind, t0=args.t0, t_end=args.t_end,
                           e0=args.e0, x0=args.x0, reference=args.reference,
                           samples=args.samples),
        "design": {"a_h": args.a_h},
    }
    if args.kind != "error":
        doc["stages"] = ["synthesize", "simulate"]
        doc["model"] = _given(name=args.model, m=args.m, n=args.n)
        doc["design"]["poles"] = args.poles
    if args.perturbation:
        doc["perturbation"] = {"name": args.perturbation}
    return _run(doc, args)


def _cmd_verify(args):
    doc = {
        "name": "verify_cli",
        "stages": ["verify"],
        "verify": _given(delta0=args.delta0, t0_grid=args.t0_grid,
                         eps_levels=args.eps_levels, horizon=args.horizon,
                         samples=args.samples),
        "design": {"a_h": args.a_h},
    }
    if args.perturbation:
        doc["perturbation"] = {"name": args.perturbation}
    return _run(doc, args)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="evuas",
        description="feedback synthesis and empirical stability "
                    "certification under diminishing perturbations")
    subs = parser.add_subparsers(dest="command", required=True)

    p_list = subs.add_parser("list", help="print the catalogs")
    _scenario_dir_flag(p_list)
    p_list.set_defaults(fn=_cmd_list)

    p_run = subs.add_parser("run", help="run a scenario file or name")
    p_run.add_argument("scenario", help="scenario path or catalog name")
    _common_flags(p_run)
    _scenario_dir_flag(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_cls = subs.add_parser("classify", help="classify a disturbance term")
    p_cls.add_argument("--perturbation", required=True,
                       choices=sorted(PERTURBATION_CATALOG))
    p_cls.add_argument("--dim", type=int)
    p_cls.add_argument("--probe-radius", type=float)
    p_cls.add_argument("--t-horizon", type=float)
    p_cls.add_argument("--quad-tol", type=float)
    p_cls.add_argument("--grid", type=_parse_floats,
                       help="profile grid, comma separated")
    _common_flags(p_cls)
    p_cls.set_defaults(fn=_cmd_classify)

    p_syn = subs.add_parser("synthesize", help="build a feedback controller")
    p_syn.add_argument("--model", required=True, choices=sorted(MODEL_CATALOG))
    p_syn.add_argument("--m", type=int)
    p_syn.add_argument("--n", type=int)
    p_syn.add_argument("--mode", choices=_DESIGN_MODES)
    p_syn.add_argument("--poles", type=_parse_poles, required=True,
                       help="';'-separated columns of ','-separated poles "
                            "(implicit) or a flat pole list (linear)")
    p_syn.add_argument("--a-h", type=_parse_matrix, default="default",
                       help="';'-separated rows of ','-separated entries, "
                            "or 'default'")
    _common_flags(p_syn)
    p_syn.set_defaults(fn=_cmd_synthesize)

    p_sim = subs.add_parser("simulate", help="simulate a loop or the error "
                                             "dynamics")
    p_sim.add_argument("--kind", choices=_SIMULATE_KINDS, default="error")
    p_sim.add_argument("--model", default="chain",
                       choices=sorted(MODEL_CATALOG))
    p_sim.add_argument("--m", type=int)
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--poles", type=_parse_poles, default="-1")
    p_sim.add_argument("--a-h", type=_parse_matrix, default="default")
    p_sim.add_argument("--perturbation", choices=sorted(PERTURBATION_CATALOG))
    p_sim.add_argument("--reference", choices=sorted(REFERENCE_CATALOG))
    p_sim.add_argument("--e0", type=_parse_floats, help="comma separated")
    p_sim.add_argument("--x0", type=_parse_floats, help="comma separated")
    p_sim.add_argument("--t0", type=float)
    p_sim.add_argument("--t-end", type=float, default=10.0)
    p_sim.add_argument("--samples", type=int)
    _common_flags(p_sim)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_ver = subs.add_parser("verify", help="empirical stability report")
    p_ver.add_argument("--a-h", type=_parse_matrix, default="default")
    p_ver.add_argument("--perturbation", choices=sorted(PERTURBATION_CATALOG))
    p_ver.add_argument("--delta0", type=float, default=0.5)
    p_ver.add_argument("--t0-grid", type=_parse_floats, default="0,1,2")
    p_ver.add_argument("--eps-levels", type=_parse_floats,
                       default="0.5,0.25")
    p_ver.add_argument("--horizon", type=float, default=10.0)
    p_ver.add_argument("--samples", type=int)
    _common_flags(p_ver)
    p_ver.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
