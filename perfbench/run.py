#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper-flow --seed 1 --seconds 10 --trace 0

The build goes to dune's usual _build directory with dune's shared cache
switched off, so nothing is written outside the checkout.  Build output
goes to stderr; stdout carries only the benchmark's report, whose last
line is the JSON result.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    here = os.path.join("perfbench", "bin", "dune")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isfile(here)):
        print("perfbench: run from the repository root (dune-project, lib/ and perfbench/ are needed)",
              file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "--display", "quiet", "./perfbench/bin/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
