#!/usr/bin/env python3
"""Builds and runs the AS-CDG closure benchmark.

Run from the repository root:

    python3 closure_bench/run.py --workload ifu-fine --seed 1 --seconds 25 --trace 0
    python3 closure_bench/run.py --selftest

The first call configures and builds closure_bench/ (with the library
sources under src/) into .bench_build/closure_bench; later calls rebuild
incrementally. Build output goes to stderr, so the last stdout line is
always the benchmark's result object. Every argument is passed through
to the benchmark binary; see closure_bench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "closure_bench")
JOBS = "4"


def fail(message):
    print("closure_bench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "flow", "runner.hpp")):
        fail("no AS-CDG sources under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    build_cmd = ["cmake", "--build", BUILD, "--parallel", JOBS]
    if subprocess.run(build_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    build()
    binary = os.path.join(BUILD, "closure_bench")
    cmd = [binary] + sys.argv[1:] + [
        "--scratch", os.path.join(BUILD, "scratch"),
        "--spans", os.path.join(BUILD, "spans"),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
