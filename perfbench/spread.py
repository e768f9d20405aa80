"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --seeds 201-210 --seconds 60
    python3 perfbench/spread.py --seeds 201-210 --seconds 60 --workload chains
    python3 perfbench/spread.py --seeds 201-210 --seconds 60 --baseline perfbench/BASELINE.json

Run from the root of a checkout.  Every run is `run.py --trace 0` in a
fresh process, one after another.  For each workload and end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread, (q3 - q1) / median, of the runs, and the spread as a share of the
metric's bound in BENCHMARK.json.  With --baseline it also makes one traced
run per workload (the first seed) and writes both to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {workload} seed {seed}: {result['failed']} jobs failed")
    return result["metrics"]


def summarise(runs):
    summary = {}
    for m in runs[0]:
        values = [r[m]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[m] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / statistics.median(values),
                      "unit": runs[0][m]["unit"], "runs": len(values)}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="a seed or a range, as 201-210")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--baseline", help="write the summary and one traced run here")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    names = [args.workload] if args.workload else workloads.WORKLOADS
    end_to_end, per_layer = {}, {}
    for name in names:
        runs = [run_once(name, seed, args.seconds, 0) for seed in seeds]
        end_to_end[name] = summarise(runs)
        for m, s in end_to_end[name].items():
            print(f"{name:10s} {m:16s} median {s['median']:12.6f} {s['unit']:3s} "
                  f"q1 {s['q1']:12.6f} q3 {s['q3']:12.6f} spread {s['spread']:.4f} "
                  f"= {s['spread'] / bounds[m]:.2f} of bound")
        if args.baseline:
            per_layer[name] = run_once(name, seeds[0], args.seconds, 1)
    if args.baseline:
        commit = None
        if os.path.isdir(".git"):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True).stdout.strip() or None
        record = {
            "commit": commit,
            "note": "medians over one run per seed of the end-to-end metrics, "
                    "spread = (q3 - q1) / median; per-layer values from one traced run",
            "python": platform.python_version(),
            "run_seconds": args.seconds,
            "seeds": seeds,
            "trace_seed": seeds[0],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
