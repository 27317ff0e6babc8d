#!/usr/bin/env python3
"""Builds the threaded-DSPE benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library and the benchmark are built with
CMake (Release) under $CARGO_TARGET_DIR, default .bench_build, resolved against
the checkout root. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits nonzero without a result when the library
sources are missing or the build fails; otherwise exits with the benchmark's
own code, which is nonzero when a correctness gate failed.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Names the exact sources built; a checkout need not be a git clone."""
    paths = []
    for top in ("src", "perfbench"):
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, top)):
            paths.extend(os.path.join(dirpath, name) for name in filenames)
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir, env):
    """Configures once, then rebuilds incrementally; returns the binary."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "dspe_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return None
    return os.path.join(build_dir, "dspe_bench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources not found at src/ next to perfbench/",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(build_dir, env)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    cmd = [binary] + sys.argv[1:] + ["--commit", source_digest()]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
