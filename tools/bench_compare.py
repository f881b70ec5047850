#!/usr/bin/env python3
"""Diff fresh BENCH_*.json results against the committed baselines.

The figure/table benches emit flat JSON objects (see bench/bench_common.h):
deterministic work counters (route_selections, signatures, threads) taken
over the bench's measured region, which must match the committed baseline
exactly — they are pure functions of (seed, config)
— and wall-clock fields (wall_ms, *_per_s) that vary by machine and only
need to stay inside a tolerance band.

    tools/bench_compare.py --baseline-dir . --fresh-dir build/bench
    tools/bench_compare.py BENCH_transport.json fresh/BENCH_transport.json

Wall-time policy: a fresh run may be up to --max-slowdown times slower than
the baseline (default 10x — CI machines are slow and noisy); any speedup is
fine. Wall-time fields are only compared when both results report the same
`hardware_concurrency`: a wall-ms diff between an 8-core baseline and a
1-core CI runner measures the hosts, not the code, so cross-host pairs skip
the timing check with a note instead of flagging a phantom regression (the
deterministic work counters are still compared exactly). Exit 0 when every
compared pair passes, 1 otherwise. Baselines with no fresh counterpart are
skipped with a note (not an error), so one bench can be compared without
running the whole suite; likewise a fresh result with no committed baseline
(a brand-new bench) is a note — its first committed run establishes the
baseline.

Pure stdlib; no dependencies.
"""

import argparse
import glob
import json
import os
import sys

# Pure functions of (seed, config): must be byte-equal across machines.
# "deterministic" is a nested object some benches emit (e.g.
# BENCH_rssac047.json's probe/window/incident counters); dict equality
# compares every counter in it exactly.
EXACT_FIELDS = ("bench", "route_selections", "signatures", "threads",
                "deterministic")
# Wall-clock dependent: tolerance band only.
TIMING_FIELDS = ("wall_ms",)


def load(path):
    with open(path) as handle:
        return json.load(handle)


def same_host(baseline, fresh):
    """Whether wall-time fields are comparable at all.

    Results record the host parallelism they ran with; a differing (or
    missing) hardware_concurrency means a different machine class and any
    wall-time ratio is meaningless.
    """
    base_hw = baseline.get("hardware_concurrency")
    fresh_hw = fresh.get("hardware_concurrency")
    return base_hw is not None and base_hw == fresh_hw


def compare(name, baseline, fresh, max_slowdown):
    failures = []
    for field in EXACT_FIELDS:
        if field not in baseline:
            continue
        if fresh.get(field) != baseline[field]:
            failures.append(
                f"{name}: {field} changed: baseline={baseline[field]!r} "
                f"fresh={fresh.get(field)!r} (deterministic field; a diff "
                f"means behaviour changed, not the machine)")
    if not same_host(baseline, fresh):
        print(f"note: {name}: baseline hardware_concurrency="
              f"{baseline.get('hardware_concurrency')!r} != fresh="
              f"{fresh.get('hardware_concurrency')!r}; wall-time comparison "
              f"refused (cross-host timings measure the machines, not the "
              f"code)")
        return failures
    for field in TIMING_FIELDS:
        base = baseline.get(field)
        new = fresh.get(field)
        if not base or new is None:
            continue
        slowdown = new / base
        if slowdown > max_slowdown:
            failures.append(
                f"{name}: {field} {new:.1f} is {slowdown:.1f}x the baseline "
                f"{base:.1f} (allowed {max_slowdown:.1f}x)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pair", nargs="*",
                        help="explicit BASELINE FRESH file pair")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding committed BENCH_*.json")
    parser.add_argument("--fresh-dir",
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--max-slowdown", type=float, default=10.0,
                        help="allowed wall-time ratio fresh/baseline")
    args = parser.parse_args()

    pairs = []
    if args.pair:
        if len(args.pair) != 2:
            parser.error("explicit mode takes exactly: BASELINE FRESH")
        if not os.path.exists(args.pair[0]):
            # A brand-new bench has no committed baseline yet; its first run
            # establishes one. Same policy as --fresh-dir: note, don't fail.
            print(f"note: no baseline {args.pair[0]}; nothing to compare "
                  f"(commit the fresh result to establish one)")
            return 0
        pairs.append((args.pair[0], args.pair[1]))
    elif args.fresh_dir:
        for fresh in sorted(glob.glob(os.path.join(args.fresh_dir,
                                                   "BENCH_*.json"))):
            baseline = os.path.join(args.baseline_dir,
                                    os.path.basename(fresh))
            if os.path.exists(baseline):
                pairs.append((baseline, fresh))
            else:
                print(f"note: no baseline for {os.path.basename(fresh)}; "
                      f"skipped")
    else:
        parser.error("pass BASELINE FRESH or --fresh-dir")

    if not pairs:
        print("error: nothing to compare", file=sys.stderr)
        return 1

    failures = []
    for baseline_path, fresh_path in pairs:
        name = os.path.basename(fresh_path)
        try:
            baseline, fresh = load(baseline_path), load(fresh_path)
        except (OSError, json.JSONDecodeError) as err:
            failures.append(f"{name}: unreadable: {err}")
            continue
        found = compare(name, baseline, fresh, args.max_slowdown)
        failures.extend(found)
        status = "FAIL" if found else "ok"
        ratio = ""
        if baseline.get("wall_ms") and fresh.get("wall_ms"):
            ratio = f"  wall {fresh['wall_ms'] / baseline['wall_ms']:.2f}x"
        print(f"{status:4} {name}{ratio}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
