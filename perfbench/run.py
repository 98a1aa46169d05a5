#!/usr/bin/env python3
"""Runs the repository benchmark, described in BENCHMARK.json.

    python3 perfbench/run.py --workload hamming-net --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Builds the pigeonring library and the perfbench driver from the enclosing
source tree (Release, under $CARGO_TARGET_DIR or .bench_build), runs the
benchmark's own percentile test, then runs the workload in a child process.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. The traced run also
writes its spans as JSON lines next to the build. --workload all runs every
workload in turn, prints each metric with its unit, and ends with one JSON
object keyed by workload. The exit code is nonzero when an answer or an
oracle check was wrong, or when the source tree is missing.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["hamming-net", "strings-join", "hamming-churn", "hamming-shard"]
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out: Path) -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no pigeonring source tree at {ROOT}")
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    # Compilers and the workloads keep their scratch files in the checkout.
    os.environ["TMPDIR"] = str(out / "tmp")
    # Serializes builds of concurrent runs in one checkout.
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                        "perfbench", "perfbench_stats_test"],
                       stdout=sys.stderr, check=True)
    return out


def run_workload(out: Path, workload: str, seed: int, seconds: float, trace: int):
    command = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out / "runs")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: {workload} printed no result (exit code {proc.returncode})")
    return proc.returncode, lines[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build(build_dir())
    if subprocess.run([str(out / "perfbench_stats_test")]).returncode != 0:
        sys.exit("perfbench: the percentile self-test failed")

    if args.workload != "all":
        code, line = run_workload(out, args.workload, args.seed, args.seconds, args.trace)
        print(line)
        return code

    worst = 0
    results = {}
    for workload in WORKLOADS:
        code, line = run_workload(out, workload, args.seed, args.seconds, args.trace)
        worst = worst or code
        result = json.loads(line)
        results[workload] = result
        for name, metric in sorted(result["metrics"].items()):
            print(f"{workload:14} {name:36} {metric['value']:>16.6g} {metric['unit']}")
        error_rate = result["failed"] / max(1, result["attempted"])
        print(f"{workload:14} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={error_rate:.6f}")
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
