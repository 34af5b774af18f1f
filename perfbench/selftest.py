#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Runs every workload of
BENCHMARK.json at the self-test's tiny corpus scale with --trace 0 and
--trace 1, and checks that each run exits 0, passes every output check
and prints every metric BENCHMARK.json names, with its unit. Then checks
that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

import json
import os
import shutil
import subprocess
import sys

SECONDS = "0.5"


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_run(spec, workload, trace):
    proc = run(".", workload, trace)
    errors = []
    if proc.returncode != 0:
        errors.append("exit status %d" % proc.returncode)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return errors + ["last line is not JSON:\n" + proc.stderr[-2000:]]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("output checks failed:\n" + proc.stderr[-2000:])
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted %r" % result.get("attempted"))
    wanted = spec["end_to_end" if trace == 0 else "per_layer"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append("metric names differ: missing %s, extra %s" % (
            sorted({m["name"] for m in wanted} - set(metrics)),
            sorted(set(metrics) - {m["name"] for m in wanted})))
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append("%s: unit %r, want %r" % (m["name"], got.get("unit"),
                                                    m["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            errors.append("%s: value %r" % (m["name"], got.get("value")))
    for m in spec["end_to_end"] if trace == 0 else []:
        if metrics.get(m["name"], {}).get("value") == 0:
            errors.append("%s is 0" % m["name"])
    return errors


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's paths: must refuse."""
    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    spec = json.load(open("BENCHMARK.json"))
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    last = proc.stdout.splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return ["bare directory: exit %d, last line %r" % (proc.returncode,
                                                          last[0])]
    return []


def main():
    spec = json.load(open("BENCHMARK.json"))
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors = check_run(spec, workload, trace)
            failures += bool(errors)
            print("%-4s %s --trace %d" % ("FAIL" if errors else "ok",
                                          workload, trace))
            for e in errors:
                print("     " + e)
    errors = check_bare_directory()
    failures += bool(errors)
    print("%-4s bare directory refused" % ("FAIL" if errors else "ok"))
    for e in errors:
        print("     " + e)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
