#!/usr/bin/env python3
"""Exact-count guard.

For one seed, the counts below must repeat exactly across runs and at 1
versus 2 worker threads: the service is deterministic by design, and these
are the numbers later changes may cite as counts rather than timings. The
guard runs each workload traced twice at 2 threads and once at 1 thread,
and untraced once at each thread count (for the simulated cost, which is
measured over the fixed prefix of the stream). From the repository root:

    python3 e2e_bench/count_guard.py --seed 7
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TRACED_COUNTS = [
    "server.plan_cache_hit_ratio",
    "optimizer.plans",
    "optimizer.estimates_per_plan",
    "optimizer.candidates_per_plan",
    "exec.rows_examined_per_output",
    "statistics.rebuilds",
    "storage.rows_written",
]
UNTRACED_COUNTS = ["sim_cost_mean_s", "sim_cost_p95_s"]
WORKLOADS = ["tpch_cached", "tpch_adhoc", "star_adhoc", "tpch_write_mix"]


def run(workload, seed, trace, threads):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--threads", str(threads)],
        cwd=ROOT, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload} trace={trace} threads={threads}: no result\n{result.stderr[-2000:]}")
    return json.loads(lines[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        legs = [(1, TRACED_COUNTS, [2, 2, 1]), (0, UNTRACED_COUNTS, [2, 1])]
        for trace, names, thread_counts in legs:
            runs = [run(workload, args.seed, trace, t) for t in thread_counts]
            for name in names:
                values = [r[name]["value"] for r in runs]
                same = all(v == values[0] for v in values)
                ok = ok and same
                print(f"{workload:15s} {name:32s} {'same' if same else 'DIFFERS'}  "
                      + "  ".join(f"{t}t={v!r}" for t, v in zip(thread_counts, values)))
    print("count guard:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
