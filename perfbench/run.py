#!/usr/bin/env python3
"""Build the PICO end-to-end benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy-pico --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --tests          # the benchmark's own unit tests

The build goes to .bench_build/perfbench under the repository root; the
first call configures and compiles the libraries under src/ (a few minutes),
later calls only rebuild what changed.  Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", "4"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def main(argv):
    target = "perfbench_tests" if argv == ["--tests"] else "pico_perfbench"
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [] if target == "perfbench_tests" else argv
    return subprocess.call([os.path.join(BUILD, target)] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
