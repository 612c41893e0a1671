#!/usr/bin/env python3
"""End-to-end benchmark of the PET simulator.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark from source (CMake, Release) into
.bench_build/e2ebench, runs the helper self-test, then runs the benchmark.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def build():
    """Configure and build; returns False with the reason on stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--parallel", "4"],
        [os.path.join(BUILD, "e2ebench_selftest")],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if proc.returncode != 0:
            print("e2ebench: step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [os.path.join(BUILD, "pet_e2ebench")] + sys.argv[1:]
    cmd += ["--scratch", BUILD]
    return subprocess.run(cmd, cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
