#!/usr/bin/env python3
"""Builds and runs the parjoin repo benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <matmul|serve-mix|tree-faulted> \
        --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (a CMake project that compiles ../src)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
perfbench binary. Build output goes to stderr; the binary's standard
output is passed through, and its last line is the result JSON. When a
BENCHMARK.json sits at the checkout root, the result's metric names must be
exactly its end_to_end names (--trace 0) or per_layer names (--trace 1).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the binary stops itself well before.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("parjoin sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode)

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == "1")
    got = set(result["metrics"])
    if want is not None and got != want:
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))
    print(proc.stdout, end="")


if __name__ == "__main__":
    main()
