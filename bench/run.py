"""evuas benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload verify_error --seed 7 --seconds 30 \
        --trace 0

Run from the repository root.  The workload process is the only load
generator: a closed loop with one caller that runs one operation after
the other through the public API until ``--seconds`` is used up.  It
pins BLAS/OpenMP threads to 1, measures set-up in fresh child processes,
checks every operation's outputs, and prints a report followed by one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
operations alternate between counted-only and traced, and the metrics
are the per-layer ones plus the tracing overhead.  Times are corrected
for contention from other tenants of the machine (see calibrate.py); the
raw figures are printed and recorded too.  The full record (environment,
per-op samples, fingerprint, gate checks, spans) goes to bench/out/.
See bench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
SETUP_PERIOD_S = 0.01          # calibration period in the short set-up probes
SETUP_TIMEOUT_S = 60


def _git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    """Machine and software record taken before any work starts."""
    return {"nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "git_commit": _git_commit(ROOT),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# set-up probe: one fresh process per measurement


def setup_probe(workload, seed):
    """Import plus workload set-up in this (fresh) process; prints JSON.

    numpy is imported before the calibration timer can run; its import
    time is counted raw and corrected with the factor sampled afterwards.
    """
    start = time.perf_counter()
    import calibrate
    with calibrate.Calibrator(SETUP_PERIOD_S) as cal:
        import instrument
        import workloads
        wl = workloads.WORKLOADS[workload]
        wl.setup(wl.default_seed if seed is None else seed,
                 instrument.Instrument(timed=False))
        raw = time.perf_counter() - start
    print(json.dumps({"raw_s": raw, "spent_s": cal.spent,
                      "samples": cal.samples}))
    return 0


def measure_setup(args):
    probes = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit("error: set-up probe failed:\n" + proc.stderr)
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# the timed loop


def run_ops(wl, state, seconds, trace, out_root, cal):
    """Run operations until ``seconds`` would be exceeded; one record each.

    With ``trace`` the operations alternate between counted-only and
    traced, and at least one of each runs.
    """
    import instrument

    counted = instrument.Instrument(timed=False)
    traced = instrument.Instrument(timed=True) if trace else None
    ops = []
    start = time.perf_counter()
    while True:
        inst = traced if (trace and len(ops) % 2 == 1) else counted
        inst.op = len(ops)
        with inst:
            mark = cal.mark()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            outcome = inst.call("op:" + wl.name, wl.run,
                                (state, inst, out_root), span=True)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            n1, spent1 = cal.mark()
        counts, stats = inst.take()
        checks = wl.check(state, outcome)
        ops.append({"traced": inst is traced, "raw_wall_s": wall,
                    "raw_cpu_s": cpu, "calib_spent_s": spent1 - mark[1],
                    "calib_samples": cal.samples[mark[0]:n1],
                    "trajectories": outcome.trajectories,
                    "artifact_bytes": outcome.artifact_bytes,
                    "counts": dict(counts), "stats": stats, "checks": checks})
        elapsed = time.perf_counter() - start
        typical = _median([op["raw_wall_s"] for op in ops])
        if elapsed + typical > seconds and (not trace or len(ops) >= 2):
            break
    return ops, traced


def apply_correction(ops, probes):
    """Fill in the contention-corrected times (see calibrate.py)."""
    import calibrate

    for op in ops:
        op["wall_s"], op["factor"] = calibrate.correct(
            op["raw_wall_s"], op["calib_spent_s"], op["calib_samples"])
        op["cpu_s"] = (op["raw_cpu_s"] - op["calib_spent_s"]) / op["factor"]
    for probe in probes:
        probe["setup_s"], probe["factor"] = calibrate.correct(
            probe["raw_s"], probe["spent_s"], probe["samples"])


# ---------------------------------------------------------------------------
# metrics


def fingerprints(ops):
    import instrument
    return [{key: op["counts"].get(key, 0)
             for key in instrument.FINGERPRINT_KEYS} for op in ops]


def end_to_end(ops, probes):
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (_median([op["wall_s"] for op in ops]), "s"),
        "cpu_s": (_median([op["cpu_s"] for op in ops]), "s"),
        "traj_per_s": (_median([op["trajectories"] / op["wall_s"]
                                for op in ops]), "1/s"),
        "setup_s": (_median([p["setup_s"] for p in probes]), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def per_layer(ops, setup):
    """Per-layer metrics per operation, averaged over the traced ones.

    Times are corrected with each traced operation's own factor; ``setup``
    holds the workload process's corrected import and synthesis times.
    """
    import instrument

    traced = [op for op in ops if op["traced"]]
    counts = traced[0]["counts"]

    def stat(name, field):       # field: 0 calls, 1 inclusive s, 2 self s
        return statistics.fmean(
            op["stats"].get(name, (0, 0.0, 0.0))[field]
            / (op["factor"] if field else 1.0) for op in traced)

    steps = counts.get("integrate.steps", 0)
    solves = counts.get("newton.solves", 0)
    rhs_calls = stat("rhs", 0)
    pert_calls = stat("pert.evaluate", 0)
    quad_calls = counts.get("quad.calls", 0)
    untraced = [op for op in ops if not op["traced"]]
    overhead = (_median([op["wall_s"] for op in traced])
                - _median([op["wall_s"] for op in untraced]))
    return {
        "integrate.calls": (counts.get("integrate.calls", 0), "count"),
        "integrate.steps": (steps, "count"),
        "integrate.rejected": (counts.get("integrate.rejected", 0), "count"),
        "integrate.rhs_calls": (counts.get("integrate.rhs_calls", 0),
                                "count"),
        "integrate.self_us_per_step": (
            _per(stat("integrate", 2), steps, 1e6), "us"),
        "rhs.self_us_per_call": (_per(stat("rhs", 2), rhs_calls, 1e6), "us"),
        "pert.evaluate.calls": (pert_calls, "count"),
        "pert.evaluate.us_per_call": (
            _per(stat("pert.evaluate", 1), pert_calls, 1e6), "us"),
        "newton.solves": (solves, "count"),
        "newton.iterations": (counts.get("newton.iterations", 0), "count"),
        "newton.failures": (counts.get("newton.failures", 0), "count"),
        "newton.us_per_solve": (_per(stat("newton", 1), solves, 1e6), "us"),
        "newton.solves_per_step": (_per(solves, steps), "ratio"),
        "quad.calls": (quad_calls, "count"),
        "quad.us_per_call": (
            _per(stat("window_integral_sup", 1), quad_calls, 1e6), "us"),
        "quad.signal_points": (counts.get("quad.signal_points", 0), "count"),
        "classify.s": (stat("classify", 1), "s"),
        "verify.trajectories": (counts.get("verify.samples", 0), "count"),
        "verify.sim_failures": (counts.get("verify.sim_failures", 0),
                                "count"),
        "verify.self_s": (stat("verify_evuas", 1)
                          - stat("verify.factory", 1), "s"),
        "scenarios.io_s": (sum(stat(name, 1)
                               for name in instrument.IO_NAMES), "s"),
        "scenarios.artifact_bytes": (traced[0]["artifact_bytes"], "bytes"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.synthesize_s": (setup["synthesize_s"], "s"),
        "trace.overhead_s": (overhead, "s"),
        "raw.wall_s": (_median([op["raw_wall_s"] for op in untraced]), "s"),
        "contention.factor": (_median([op["factor"] for op in ops]),
                              "ratio"),
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the workload's pinned seed)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measurement budget for the timed operations")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _locate_package():
    """Put the checkout's src/ first on the path; the package must be there."""
    src = ROOT / "src"
    if not (src / "evuas" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/evuas not found; run from the "
                         "repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))


def report(wl, seed, args, ops, metrics, failed, attempted, steady, prints,
           env):
    walls = [op["wall_s"] for op in ops]
    raw = [op["raw_wall_s"] for op in ops]
    q1, q3 = _quartiles(walls)
    print(f"workload {wl.name} seed {seed} trace {args.trace}: {len(ops)} "
          f"ops; corrected wall median {_median(walls):.3f} s (q1 {q1:.3f}, "
          f"q3 {q3:.3f}, n={len(ops)}); raw wall median {_median(raw):.3f} s; "
          f"contention factor {_median([op['factor'] for op in ops]):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.3g}; "
          f"fingerprint steady across ops: {steady}")
    for i, op in enumerate(ops):
        for c in op["checks"]:
            if c["failed"]:
                print(f"  MISS op {i} {c['check']}: {c['detail']}")
    print("  fingerprint " + json.dumps(prints[0], sort_keys=True))
    print("  environment " + json.dumps(env, sort_keys=True))


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:          # before numpy is imported
        os.environ[var] = "1"
    env = environment()
    _locate_package()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    probes = measure_setup(args)
    import_start = time.perf_counter()
    import calibrate
    with calibrate.Calibrator() as cal:
        import numpy
        import scipy
        import evuas
        import instrument
        import workloads
        import_raw = time.perf_counter() - import_start - cal.spent
        if not Path(evuas.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"error: evuas imported from {evuas.__file__}")
        env.update(numpy=numpy.__version__, scipy=scipy.__version__,
                   evuas=evuas.__version__)
        if args.workload not in workloads.WORKLOADS:
            raise SystemExit(f"error: unknown workload {args.workload!r} "
                             f"(known: {sorted(workloads.WORKLOADS)})")
        wl = workloads.WORKLOADS[args.workload]
        seed = wl.default_seed if args.seed is None else args.seed

        setup_inst = instrument.Instrument(timed=bool(args.trace))
        setup_inst.op = "setup"
        with setup_inst:
            state = wl.setup(seed, setup_inst)
        _, setup_stats = setup_inst.take()
        # one factor for the import and set-up in this process
        factor = calibrate.correct(1.0, 0.0, cal.samples)[1]
        setup = {"import_s": import_raw / factor,
                 "synthesize_s": setup_stats.get(
                     "synthesize", (0, 0.0))[1] / factor}

        OUT_DIR.mkdir(exist_ok=True)
        scratch = OUT_DIR / f"tmp-{os.getpid()}"
        scratch.mkdir()
        try:
            ops, traced = run_ops(wl, state, args.seconds, args.trace,
                                  scratch, cal)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    apply_correction(ops, probes)
    prints = fingerprints(ops)
    steady = all(fp == prints[0] for fp in prints)
    attempted = sum(c["attempted"] for op in ops for c in op["checks"])
    failed = sum(c["failed"] for op in ops for c in op["checks"])
    if args.trace:
        metrics = per_layer(ops, setup)
    else:
        metrics = end_to_end(ops, probes)
    correct = failed == 0 and steady

    record = {
        "workload": wl.name, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": attempted, "failed": failed, "steady": steady,
        "fingerprint": prints[0],
        "setup_probes": [{k: v for k, v in p.items() if k != "samples"}
                         for p in probes],
        "ops": [{k: v for k, v in op.items()
                 if k not in ("stats", "calib_samples", "checks")}
                | {"failed_checks": [c for c in op["checks"] if c["failed"]]}
                for op in ops],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    stem = f"{wl.name}-seed{seed}-trace{args.trace}"
    if traced is not None:
        spans_path = OUT_DIR / f"{stem}-spans.json"
        spans_path.write_text(json.dumps(traced.spans))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    report(wl, seed, args, ops, metrics, failed, attempted, steady, prints,
           env)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
