#!/usr/bin/env python3
"""Build and run the repository benchmark (see hostbench/README.md).

    python3 hostbench/run.py --workload grid-sharded --seed 1 --seconds 40 --trace 0

Run from the repository root. Configures and builds hostbench/ in Release
mode under $CARGO_TARGET_DIR (default .bench_build), then runs the hostbench
binary, whose last stdout line is the JSON result. Build output goes to
stderr. Exits non-zero without a result when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid-stream", "paper-suite", "stabilize-stream", "grid-sharded")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "hostbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("hostbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "hostbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "hostbench")
    exe = build(os.path.abspath(build_dir))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected.json")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(os.path.abspath(build_dir),
                                            "trace-%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
