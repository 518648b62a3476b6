#!/usr/bin/env python3
"""Builds and runs one workload of the oisched benchmark.

    python3 perfbench/run.py --workload churn-n4096 --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds the
library and the perfbench_run binary (Release) into .bench_build/; later
calls rebuild only what changed. Standard output gets a host line (machine,
build, and the CPU steal share over the run), the binary's details line, and
last the result object. The exit code is the binary's: non-zero when a
correctness gate fails or the build does.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "perfbench_run")
RUN_TIMEOUT_S = 170


def build():
    """Configures on first use, then builds; build chatter goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_run", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def cpu_times():
    """The aggregate 'cpu' line of /proc/stat (jiffies), or None."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:]] if fields and fields[0] == "cpu" else None


def steal_share(before, after):
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def cache_value(name):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                key, _, value = line.strip().partition("=")
                if key.split(":")[0] == name:
                    return value
    except OSError:
        pass
    return None


def first_line(command):
    try:
        out = subprocess.run(command, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    top = first_line(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    before = cpu_times()
    try:
        run = subprocess.run(
            [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    after = cpu_times()

    compiler = cache_value("CMAKE_CXX_COMPILER")
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": first_line([compiler, "--version"]) if compiler else None,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "oisched_native": cache_value("OISCHED_NATIVE"),
        "git_sha": git_sha(),
        "steal_frac": steal_share(before, after),
    }
    print(json.dumps({"host": host}))
    lines = run.stdout.splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    if run.returncode == 0 and not lines:
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
