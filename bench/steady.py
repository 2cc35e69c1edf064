"""Steadiness check: run the benchmark on several seeds, report spreads.

    python3 bench/steady.py --workloads verify_error reproduce --seeds 1-10 \
        --seconds 30 [--compare bench/out/steady-previous.json]

Runs ``bench/run.py`` once per (workload, seed), one process at a time,
and prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, next to the metric's bound from BENCHMARK.json.
It also checks that every run passed its gate and was steady, and, with
``--compare``, that each run's work-count fingerprint equals the one an
earlier set recorded for the same workload and seed, and that no median
got worse by more than its bound.  The summary goes to
bench/out/steady-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(
        (OUT_DIR / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"seed": seed, "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "fingerprint": record["fingerprint"]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", default="1-10",
                   help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--compare", type=Path, default=None,
                   help="an earlier summary to compare fingerprints with")
    args = p.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else None

    summary = {"seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_one(workload, seed, seconds))
            r = runs[-1]
            print(f"{workload} seed {seed}: correct {r['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items()),
                  flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            stats[name] = spread([r["metrics"][name] for r in runs])
            s = stats[name]
            within = name == "setup_s" or s["spread"] <= bounds[name]
            ok &= within
            print(f"  {name:12s} median {s['median']:.4g} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} "
                  f"spread {s['spread']:.3f} bound {bounds[name]}"
                  + ("" if within else "  OVER BOUND"))
        ok &= all(r["correct"] for r in runs)
        if earlier and workload in earlier["workloads"]:
            before = earlier["workloads"][workload]
            old = {r["seed"]: r["fingerprint"] for r in before["runs"]}
            same = all(r["fingerprint"] == old[r["seed"]]
                       for r in runs if r["seed"] in old)
            ok &= same
            print(f"  fingerprints equal to the earlier set: {same}")
            for name, s in stats.items():
                worse = s["median"] / before["stats"][name]["median"] - 1.0
                if better[name] == "higher":
                    worse = -worse
                within = worse <= bounds[name]
                ok &= within
                print(f"  {name:12s} median change {worse:+.3f} (worse if > 0)"
                      + ("" if within else "  OVER BOUND"))
        summary["workloads"][workload] = {"runs": runs, "stats": stats}

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"summary: {path.relative_to(Path.cwd())}; all within bounds: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
