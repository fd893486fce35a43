#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig3-grid --seed 1 --seconds 15 --trace 0

Builds perfbench/ (which compiles the simulator library from src/) into
.bench_build/perfbench with CMake, then runs the allarm_perfbench binary
with the given arguments.  Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.  Exits
non-zero without a result when the sources or the build are missing.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "allarm_perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.hh")):
        fail("simulator sources not found under %s/src; run from a full "
             "checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                       "--target", "allarm_perfbench"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def main():
    build()
    sys.exit(subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
