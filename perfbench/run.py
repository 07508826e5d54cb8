#!/usr/bin/env python3
"""Build the benchmark harness from source, then run one workload.

    python3 perfbench/run.py --workload stall-bound --seed 1 --seconds 20 --trace 0

The harness and the simulator libraries it links are compiled into
.bench_build/ at the repository root (rebuilt incrementally). Build
output goes to stderr; the harness's stdout, whose last line is the
JSON result, passes through unchanged. The exit status is 1 when the
build fails, else the harness's.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("stall-bound", "issue-bound", "sampled-replay")


def build():
    """Configure and build the harness (incrementally); return its path."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr,
        check=True,
    )
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="tiny run lengths, for the benchmark's own test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--golden", os.path.join(ROOT, "golden"),
        "--scratch", BUILD,
    ]
    if args.smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
