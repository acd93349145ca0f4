#!/usr/bin/env python3
"""Build and run the PerfTrack benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest|explore|serve --seed N \
        --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles ../src) into .bench_build/
on first use, then runs one workload with its scratch files under
.bench_work/<workload>/. Build output goes to stderr; the benchmark's report
goes to stdout, whose last line is the JSON result. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return BUILD_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "explore", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    workdir = WORK_DIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--out", str(WORK_DIR / "out")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # Inputs and stores are rebuilt from the seed every run.
        shutil.rmtree(workdir, ignore_errors=True)

    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: benchmark exited with code %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        sys.exit("perfbench: no result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
