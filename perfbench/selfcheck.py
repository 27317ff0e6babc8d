#!/usr/bin/env python3
"""Self-check of the benchmark at tiny size.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json in both modes at --scale tiny and checks
that the result line has exactly the keys correct/attempted/failed/metrics,
that the gate passed, and that every metric BENCHMARK.json names (end_to_end
for --trace 0, per_layer for --trace 1) is printed with a finite value and its
unit, and no other. Then checks that run.py fails fast, printing no result,
in a directory that holds only BENCHMARK.json and perfbench/. Exits nonzero
on any failure. Takes well under a minute once built.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_tiny(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr[-2000:])
    return json.loads(lines[-1]), None


def check_result(result, expected):
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
        return errors
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("gate: correct=%s failed=%s"
                      % (result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted=%r" % result["attempted"])
    metrics = result["metrics"]
    for name in sorted(set(metrics) - set(expected)):
        errors.append("unexpected metric %s" % name)
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            errors.append("missing metric %s" % name)
            continue
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: value %r is not finite" % (name, value))
        if entry.get("unit") != unit:
            errors.append("%s: unit %r, expected %r"
                          % (name, entry.get("unit"), unit))
    return errors


def check_isolated(spec):
    """run.py must exit nonzero, without a result, when src/ is absent."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    scratch = os.path.join(ROOT, target, "selfcheck-isolated")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(scratch, path))
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            return ["isolated run: exit %d, stdout %r"
                    % (proc.returncode, proc.stdout[-200:])]
        return []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in modes.items():
            result, error = run_tiny(workload, trace)
            errors = [error] if error else check_result(result, expected)
            status = "ok" if not errors else "FAIL"
            print("%-16s trace=%d %s (%d metrics)"
                  % (workload, trace, status, len(expected)))
            for e in errors:
                print("    " + e)
            failures += bool(errors)
    errors = check_isolated(spec)
    print("isolated checkout %s" % ("ok" if not errors else "FAIL"))
    for e in errors:
        print("    " + e)
    failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
