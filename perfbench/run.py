#!/usr/bin/env python3
"""Builds and runs the relcomp end-to-end benchmark.

    python3 perfbench/run.py --workload audit-search --seed 1 \
        --seconds 20 --trace 0

Run it from the root of the relcomp source tree. The first run configures
and builds perfbench/ (which compiles the relcomp library from src/) in
Release mode into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs rebuild incrementally. The benchmark's output is passed
through: its last line is the JSON result, and its exit code is the
benchmark's. Span files and cache snapshots go to the build directory.
"""
import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(source, build_dir):
    """Configures (once) and builds the benchmark; returns its path or None."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "relcomp_perfbench", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write("".join(result.stdout.splitlines(True)[-40:]))
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return None
    return os.path.join(build_dir, "relcomp_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    source = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(source, build_dir)
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", build_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
