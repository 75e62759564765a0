#!/usr/bin/env python3
"""Builds and runs the end-to-end mediator benchmark.

Usage, from the repository root:

    python3 e2e_bench/run.py --workload <hybrid_updates|materialized_fanout|
        query_mix> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the benchmark program (CMake, Release)
together with the mediator library from src/, into
$CARGO_TARGET_DIR/e2e_bench, or .bench_build/e2e_bench when that variable
is unset. Build output goes to
stderr; the program's stdout is passed through, and its last line is the
JSON result. The exit code is the program's, or non-zero when the sources
are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "e2e_bench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "mediator",
                                       "mediator.h")):
        print("e2e_bench: mediator sources (src/) not found next to "
              + HERE, file=sys.stderr)
        return 2
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print("e2e_bench: build failed: %s" % err, file=sys.stderr)
        return 3
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
