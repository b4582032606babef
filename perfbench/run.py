#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload dense|serve|overload --seed N \
        --seconds S --trace 0|1 [--scale full|toy] [--expect NAME=VALUE ...]

Run it from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the layer
libraries from src/) into .bench_build/perfbench; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. With --trace 1 the recorded spans are written
to .bench_build/perfbench/spans-<workload>-<seed>.csv.

Exits non-zero, without a result line, when the build fails (for instance
when src/ is missing), when any correctness check fails, or when the run
overruns its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["dense", "serve", "overload"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="full", choices=["full", "toy"])
    parser.add_argument("--expect", action="append", default=[])
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--scale", args.scale]
    for expect in args.expect:
        cmd += ["--expect", expect]
    if args.trace == "1":
        cmd += ["--spans-out",
                os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.csv")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
