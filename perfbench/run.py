#!/usr/bin/env python3
"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the simulator plus the benchmark program into .bench_build/
(perfbench/hook.cmake adds the program to the simulator's own CMake
project); later calls only re-check the build. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ones (see BENCHMARK.json and perfbench/RATIONALE.md).
The exit status is 0 only when every output check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("fuzz-campaign", "seed-sweep", "loaded-app")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD_DIR, "perfbench", "aitax_perfbench")
CLI = os.path.join(BUILD_DIR, "tools", "aitax_cli")
HOOK = os.path.join("perfbench", "hook.cmake")
# Set-up is repeated in fresh processes (the model-graph cache is
# per process) and reported as the median with the run's own set-up.
SETUP_REPEATS = 10
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build only the two programs a run needs."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        die("run from the root of a source checkout "
            "(no CMakeLists.txt and src/ here)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ".", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DCMAKE_PROJECT_INCLUDE=" + os.path.abspath(HOOK)])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "aitax_perfbench", "aitax_cli", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        try:
            done = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            die("build step failed: %s" % err)
        if done.returncode != 0:
            die("build step failed: " + " ".join(cmd))


def program(args):
    try:
        return subprocess.run([PROGRAM] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        die("%s failed: %s" % (args[0], err))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: the self-test's corpus scale")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_REPEATS):
            proc = program(["setup"] + common)
            if proc.returncode != 0:
                die("setup exited with %d" % proc.returncode)
            setups.append(float(proc.stdout.strip()))

    proc = program(["run"] + common + [
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--cli", os.path.abspath(CLI)])
    lines = proc.stdout.splitlines()
    if not lines:
        die("run printed no result (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("run's last line is not JSON (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("perfbench: setup_s is the median of %d set-ups: %s" %
              (len(setups), " ".join("%.4f" % s for s in setups)))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
