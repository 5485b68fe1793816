#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload scan_topk --seed 1 --seconds 20 --trace 0

The benchmark binary is built from source with CMake into the directory named
by CARGO_TARGET_DIR (default .bench_build), under perfbench/. Build output
and the binary's diagnostics go to stderr; the last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}. A traced run
(--trace 1) also writes its spans to <build dir>/traces/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan_topk", "graph_3way", "refresh_cold")
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 600
BUILD_JOBS = "4"


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; raises on failure or timeout.

    The command gets its own process group, so that a timeout also stops
    the compilers a build started.
    """
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        returncode = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, cmd)


def build(build_dir):
    start = time.monotonic()
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    run_checked(configure, BUILD_TIMEOUT_S)
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - start)
    run_checked(["cmake", "--build", build_dir, "-j", BUILD_JOBS], remaining)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed with exit code {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
