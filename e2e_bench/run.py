#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload tpch_cached --seed 1 --seconds 10 --trace 0

The first call configures and builds e2e_bench (this directory's CMake
project, which pulls in the engine from ../src) into the build directory:
$CARGO_TARGET_DIR/e2e_bench when that variable is set, else
.bench_build/e2e_bench. Build output goes to stderr, so the last line of
stdout is the JSON result. Traced runs write their Chrome trace
into the build directory. The exit code is e2e_bench's: 0 only when every
request succeeded and every correctness check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2e_bench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2e_bench: engine sources (src/) not found next to the benchmark")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"e2e_bench: build failed: {error}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--threads", str(args.threads), "--out", out]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2e_bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
