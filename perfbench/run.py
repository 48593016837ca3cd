#!/usr/bin/env python3
"""Build perfbench against the repository's sources, then run it.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (a
path relative to the checkout root) or to .bench_build, and is
incremental, so only the first run of a checkout compiles the libraries.
Build output goes to stderr; the benchmark's JSON result is the last line
of stdout. Exits non-zero, printing no result, when the repository's
sources are missing or the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no repository sources under " + ROOT, file=sys.stderr)
        return 2
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        build = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if build.returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 2
    binary = os.path.join(build_dir, "perfbench")
    command = [binary, *sys.argv[1:],
               "--out-dir", os.path.join(build_root, "out")]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
