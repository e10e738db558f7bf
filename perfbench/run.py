#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload steering|fischer_enum|server_mix \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/bench.exe with dune
(build output goes to standard error), then runs it with the same
arguments.  The last line of standard output is the benchmark's JSON
result; the exit code is the benchmark's.  See perfbench/NOTES.md.
"""

import os
import subprocess
import sys

# A cold build plus one run stays within 15 minutes; a warm run within 3.
BUILD_LIMIT_S = 700
RUN_LIMIT_S = 170


def main():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
