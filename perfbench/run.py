#!/usr/bin/env python3
"""Build and run the fsicp benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe (with the fsicp libraries it links) through
dune, then runs it with the same arguments.  All timing happens inside
that single OCaml process; this script only builds and forwards.  The last
line of standard output is the JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    os.chdir(ROOT)
    project = os.path.join(ROOT, "dune-project")
    if not os.path.isfile(project) or "(name fsicp)" not in open(project).read():
        fail("not at the root of an fsicp checkout (no fsicp dune-project)", 2)
    if not os.path.isdir(os.path.join(ROOT, "lib")):
        fail("the fsicp sources (lib/) are missing", 2)
    env = dict(os.environ, DUNE_CACHE="disabled", FSICP_JOBS="1")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed", 1)
    run = subprocess.run(
        [EXE] + sys.argv[1:]
        + ["--expected", os.path.join("perfbench", "expected.txt"),
           "--out", os.path.join("perfbench", "out")],
        env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
