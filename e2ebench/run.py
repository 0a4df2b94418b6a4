#!/usr/bin/env python3
"""Build and run the gsgcn end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the library sources
and the benchmark with CMake (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs reuse the build. Each run
first executes the benchmark's helper self-tests, then the workload. Build
output goes to stderr so that the last line of stdout is the JSON result.
Trace files and run outputs go to .bench_out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (cfg, ["cmake", "--build", build_dir, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"e2ebench: build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "e2ebench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "e2ebench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        sys.exit("e2ebench: helper self-tests failed")

    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out"]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
