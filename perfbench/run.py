#!/usr/bin/env python3
"""Builds and runs the rootsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src in
Release mode) under $CARGO_TARGET_DIR, or .bench_build when unset; later
calls rebuild incrementally. The last line of stdout is the workload's JSON
result. --smoke runs every workload at tiny size, traced and untraced, and
checks that the printed metric names and units match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return out / "perfbench"


def run(binary, args):
    """Runs the binary; returns (exit code, stdout)."""
    done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    problems = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            code, stdout = run(binary, ["--workload", workload["name"], "--seed", "1",
                                        "--seconds", "1", "--trace", str(trace),
                                        "--smoke"])
            label = f"{workload['name']} trace {trace}"
            if code != 0:
                print(f"FAIL {label}: exit code {code}")
                problems += 1
                continue
            result = json.loads(stdout.strip().splitlines()[-1])
            printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
            if printed != expected[trace]:
                print(f"FAIL {label}: metrics {printed} != BENCHMARK.json {expected[trace]}")
                problems += 1
            elif not result["correct"] or result["failed"]:
                print(f"FAIL {label}: output checks failed")
                problems += 1
            else:
                print(f"ok   {label}: {len(printed)} metrics, "
                      f"{result['attempted']} units checked")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary)

    cli = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cli += ["--spans", str(build_dir() / f"spans-{args.workload}-seed{args.seed}.csv")]
    try:
        code, stdout = run(binary, cli)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
