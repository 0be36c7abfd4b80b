#!/usr/bin/env python3
"""Build synts and the serve benchmark from source, then make one run.

Run from the root of a synts checkout:

    python3 servebench/run.py --workload rpc-cs --seed 1 --seconds 10 --trace 0

The build goes to _build/ (dune's default); the run itself is pinned to
one CPU, which the daemons it spawns inherit, so the generator and the
daemon always share a CPU. Everything after the build is
servebench/main.ml; see servebench/README.md.
"""
import os
import subprocess
import sys


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        sys.stderr.write("servebench: run from the root of a synts checkout\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./bin/main.exe", "./servebench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("servebench: build failed\n")
        return 2
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    exe = os.path.join("_build", "default", "servebench", "main.exe")
    synts = os.path.join("_build", "default", "bin", "main.exe")
    os.execv(exe, [exe, "--synts", synts] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
