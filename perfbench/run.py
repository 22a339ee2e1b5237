#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (the first build compiles the whole
library), then runs it with the same arguments.  The benchmark prints its
report and, as its last line, one JSON object; this script passes both
through and exits with the benchmark's exit code.  Build failures exit
nonzero without printing a result.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("perfbench: dune not found on PATH")


def main():
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "perfbench")):
        sys.exit("perfbench: run from the root of a checkout")
    build = subprocess.run(
        dune_command() + ["build", "--root", root, "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.exit("perfbench: build failed")
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
