#!/usr/bin/env python3
"""Build and run the OpenSNA benchmark.

    python3 snabench/run.py --workload signoff|screen|golden --seed N \
        --seconds S --trace 0|1
    python3 snabench/run.py --self-test

Run from the repository root. The first call configures and builds the
program's libraries and the benchmark into .bench_build/ (Release); later
calls only re-check the build. Build output goes to stderr; the benchmark's
last stdout line is its JSON result. --self-test builds and runs the tests
of the benchmark's own output checks.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "snabench"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "snabench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.stderr.write("benchmark build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=["signoff", "screen", "golden"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return subprocess.run([str(BUILD / "snabench_checks")]).returncode
    cmd = [str(BUILD / "snabench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(ROOT / ".bench_tmp"),
           "--trace-file", str(ROOT / ".bench_trace" /
                               ("%s-%d.json" % (args.workload, args.seed)))]
    try:
        res = subprocess.run(cmd, cwd=str(ROOT), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
