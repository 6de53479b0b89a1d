#!/usr/bin/env python3
"""Builds pga_perfbench from source and runs one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build goes to .bench_build/perfbench and is
incremental after the first run.  Build output goes to standard error;
pga_perfbench's standard output is passed through, so the last line is the result
object ({"correct", "attempted", "failed", "metrics"}).  With --trace 1 the
spans of the last traced episode are also written as a Chrome trace to
.bench_build/perfbench/trace-<workload>-<seed>.json.  The exit status is
pga_perfbench's: 0 when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pga_perfbench")
WORKLOADS = ("rastrigin-islands-par", "bisection-master-slave")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures until a build system exists, then builds incrementally."""
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "pga_perfbench", "-j", "2"],
        stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")]
    # A run measures for --seconds, then finishes its last episodes (at least
    # three untraced and three traced) and the oracle: allow twice the
    # measured time plus a fixed margin.
    timeout_s = 2 * args.seconds + 60
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout_s:g} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"result keys {sorted(result)}")
    except (IndexError, ValueError) as e:
        print(f"perfbench: malformed pga_perfbench output ({e})", file=sys.stderr)
        sys.stderr.write(proc.stdout)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
