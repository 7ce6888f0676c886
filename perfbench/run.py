#!/usr/bin/env python3
"""Builds and runs the metaopt fixed-work benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dp-b4 --seed 1 --seconds 50 --trace 0

The first call configures and builds the library sources under src/ plus
the driver (perfbench.cpp) into .bench_build/ with CMake; later calls only
re-run the incremental build. Build output goes to stderr, so the last line
of stdout is the driver's JSON result. Any build or run failure exits
non-zero without printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("dp-b4", "pop-b4", "ffd-closed", "campaign")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def run_checked(cmd, timeout):
    """Runs cmd with its stdout sent to our stderr; raises on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def build(root, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    source = os.path.join(root, "perfbench")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(source):
            shutil.rmtree(build_dir)  # cache from another checkout
    if not os.path.exists(cache):
        run_checked(["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    if proc.returncode == 1:
        # The output gate failed: the result says correct=false.
        sys.stdout.write(proc.stdout)
        return 1
    if proc.returncode != 0:
        # Keep the driver's diagnostics, but print no result line.
        sys.stderr.write(proc.stdout)
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 5
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
