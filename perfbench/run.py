#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload warm-localize --seed 1 --seconds 10 --trace 0

The first run configures and builds the emutile library and the benchmark program into
.bench_build/ (a few minutes); later runs only rebuild what changed. Build
output goes to stderr; the program's stdout is passed through unchanged, so
its last line is the run's JSON result. Exits nonzero, without a result, if
the build fails (for instance when the library sources are not there).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    work = os.path.relpath(os.path.join(BUILD, "work"), ROOT)
    program = os.path.join(BUILD, "perfbench")
    return subprocess.run([program, *sys.argv[1:], "--work", work],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
