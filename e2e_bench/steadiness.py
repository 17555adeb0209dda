#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

Runs every listed workload once per seed, untraced, and prints for each
end-to-end metric its median and its spread: the distance between the
first and third quartiles (statistics.quantiles(values, n=4)) as a share of
the median, next to the bound BENCHMARK.json gives it. From the repository
root:

    python3 e2e_bench/steadiness.py --seeds 1-10
    python3 e2e_bench/steadiness.py --workloads tpch_cached --seeds 101-105
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}, seeds {args.seeds}")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:18s} median {median:14.6f}  spread {spread:7.4f}  bound {bound}{flag}")
            if args.verbose:
                print("      runs: " + " ".join(f"{v:.4g}" for v in series))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
