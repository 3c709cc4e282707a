#!/usr/bin/env python3
"""Build the ledger benchmark from source and run one workload.

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the benchmark into .bench_build/ledger (a few minutes); later
calls only check the build is current. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The exit code is
the benchmark's: 0 only when every simulated answer checked out.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "ledger_bench",
         "ledger_stats_test"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    # The benchmark's own arithmetic must hold before its numbers count.
    subprocess.run([os.path.join(BUILD, "ledger_stats_test")], check=True,
                   stdout=sys.stderr, timeout=60)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"ledger: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(BUILD, "work", str(os.getpid()))
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(work, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "ledger_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--answers", os.path.join(HERE, "answers.txt"),
           "--work-dir", work]
    if args.trace:
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("ledger: run timed out", file=sys.stderr)
        rc = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
