#!/usr/bin/env python3
"""Fast self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Run it from the repository root. For every workload it checks that:
  - a toy run exits 0 and its last stdout line is the result object, with
    every end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
    metric (--trace 1) present under its declared unit;
  - the exact counts repeat at the same seed and change at a second seed;
  - a deliberately wrong expected count (--expect) fails the run with a
    non-zero exit and no result line, while the right one passes.
Exits 0 when every check holds.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dense", "serve", "overload"]


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--scale", "toy", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=900)


def counts_of(proc):
    match = re.search(r"^counts:(.*)$", proc.stdout, re.MULTILINE)
    assert match, "no counts line:\n" + proc.stdout
    return dict(kv.split("=") for kv in match.group(1).split())


def result_of(proc):
    assert proc.returncode == 0, f"exit {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    return result


def check_metrics(result, declared, label):
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{label}: metric {metric['name']} missing"
        assert got["unit"] == metric["unit"], f"{label}: {metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {metric['name']} not a number"
    assert len(result["metrics"]) == len(declared), f"{label}: undeclared metrics printed"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in WORKLOADS:
        plain = run(workload, 1, 0)
        check_metrics(result_of(plain), bench["end_to_end"], f"{workload} --trace 0")
        check_metrics(result_of(run(workload, 1, 1)), bench["per_layer"], f"{workload} --trace 1")

        counts = counts_of(plain)
        assert counts_of(run(workload, 1, 0)) == counts, f"{workload}: counts differ at one seed"
        assert counts_of(run(workload, 2, 0)) != counts, f"{workload}: seed 2 gave seed 1's counts"

        right = run(workload, 1, 0, "--expect", f"plays={counts['plays']}")
        result_of(right)
        wrong = run(workload, 1, 0, "--expect", f"plays={int(counts['plays']) + 1}")
        assert wrong.returncode != 0, f"{workload}: a wrong expected count passed"
        assert '"metrics"' not in wrong.stdout, f"{workload}: a failed run printed a result"
        print(f"{workload}: ok")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
