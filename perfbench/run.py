#!/usr/bin/env python3
"""Builds and runs one workload of the ptask performance benchmark.

    python3 perfbench/run.py --workload serve-hit|serve-miss|direct-50k \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
library, the daemon (ptask_served) and the benchmark program from source into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check it.  The
program's last output line, one JSON object with the metrics, is printed as
this script's last line.  The exit code is the program's: non-zero on any
build failure or correctness failure.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-hit", "serve-miss", "direct-50k")


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", source, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "ptask_served", "perfbench"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    bench = subprocess.run(
        [os.path.join(build_dir, "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--served", os.path.join(build_dir, "ptask", "tools", "ptask_served")],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = bench.stdout.strip().splitlines()
    if lines:
        print(lines[-1])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
