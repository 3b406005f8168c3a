#!/usr/bin/env python3
"""End-to-end benchmark of the DynaQ simulator (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the job runner from source into .bench_build/perfbench (CMake, the
first run takes about a minute), runs it, and passes its output through. The
last line of standard output is the run's result: one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Exits non-zero, without a
result line, on bad arguments or a failed build, and non-zero with
`"correct": false` when an output check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
RESULTS = os.path.join(BUILD, "results")
# A run measures for --seconds and may overrun by one job; anything near
# this limit is a hang.
RUNNER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # Any integer is a seed, taken modulo 2^64.
    args.seed %= 2**64
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def build():
    """Configures (once) and builds the runner; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench_runner", "-j", jobs],
        check=True,
        stdout=sys.stderr,
    )


def main(argv):
    args = parse_args(argv)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    os.makedirs(RESULTS, exist_ok=True)
    command = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", RESULTS]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as runner:
        try:
            out, _ = runner.communicate(timeout=RUNNER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            runner.kill()
            runner.communicate()
            print(f"perfbench: runner exceeded {RUNNER_TIMEOUT_S} s", file=sys.stderr)
            return 1

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == RESULT_KEYS
    except ValueError:
        well_formed = False
    if not well_formed:
        sys.stdout.write(out)
        print("perfbench: the runner printed no result line", file=sys.stderr)
        return runner.returncode or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return runner.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
