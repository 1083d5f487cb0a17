#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources, then runs it.

Run from the repository root; every argument goes to the bench_e2e binary:

    python3 bench_e2e/run.py --workload calibre_cifar10 --seed 1 --seconds 20 --trace 0

The build lands in .bench_build/ at the repository root and is incremental,
so only the first run of a checkout compiles the library. Build output goes
to stderr; stdout carries only the benchmark's report, whose last line is
the JSON result. A failed build exits nonzero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "bench_e2e"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "bench_e2e", "--parallel",
         str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("bench_e2e: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    if not build():
        return 2
    binary = os.path.join(BUILD, "bench_e2e")
    sys.stdout.flush()
    # exec: the benchmark replaces this process, so it is the one that
    # starts and reaps every federation process.
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
