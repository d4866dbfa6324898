#!/usr/bin/env python3
"""Compare a fresh bench_micro_perf JSON run against BENCH_hotpath.json.

Fails (exit 1) when any shared benchmark is slower than the committed
reference by more than --threshold after machine-speed calibration.

Calibration: absolute nanoseconds are not comparable across machines, so
both runs are normalized by a yardstick benchmark (default BM_Xoshiro: a
pure-register RNG kernel whose cost tracks single-core speed and nothing
this repo optimizes). What is compared is therefore "cycles of yardstick
work per simulator step", which survives CPU-model changes.

Flakiness caveat: shared CI runners still jitter by tens of percent
(frequency scaling, noisy neighbors, cache topology). The default 1.5x
threshold is deliberately loose so this check only catches *gross*
regressions — an accidental per-cycle allocation, string hash, or O(VCs)
walk on the hot path. Treat a failure as a strong signal and a pass as
weak evidence; use bench_micro_perf --benchmark_repetitions locally for
real measurements.
"""

import argparse
import json
import sys


def load_times(path):
    with open(path) as f:
        data = json.load(f)
    if "benchmarks" not in data:
        raise SystemExit(f"{path}: not a google-benchmark JSON file")
    times = {}
    for bench in data["benchmarks"]:
        if isinstance(bench, dict) and "real_time" in bench:
            if "aggregate_name" not in bench:
                # With --benchmark_repetitions the same name repeats; keep
                # the fastest repetition — the standard noise-robust
                # estimator, since interference only ever adds time.
                name = bench["name"].split("/repeats:")[0]
                t = float(bench["real_time"])
                times[name] = min(times.get(name, t), t)
    return times


def load_reference(path):
    with open(path) as f:
        data = json.load(f)
    times = {name: row["after"]["real_time_ns"] for name, row in data["benchmarks"].items()}
    return times, data.get("fast_forward_gates", [])


def check_fast_forward_gates(fresh, gates):
    """Same-machine speedup floors: both sides of each pair come from the
    *fresh* run, so no calibration is involved and the check is immune to
    machine-speed differences — only the ratio matters. Guards the
    active-set skipping engine: if parking breaks (the engine silently
    stops skipping) or skipping becomes as expensive as stepping, the pair
    collapses toward 1x and this fails."""
    failures = []
    for gate in gates:
        fast, slow = gate["fast"], gate["slow"]
        if fast not in fresh or slow not in fresh:
            print(f"  SKIP fast-forward gate {slow} / {fast}: benchmark missing from fresh run")
            continue
        speedup = fresh[slow] / fresh[fast]
        verdict = "FAIL" if speedup < gate["min_speedup"] else "ok"
        print(f"  {verdict:4s} {slow} / {fast}: {speedup:.1f}x "
              f"(floor {gate['min_speedup']:.0f}x)")
        if speedup < gate["min_speedup"]:
            failures.append(f"{slow}/{fast}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="JSON from bench_micro_perf --benchmark_format=json")
    parser.add_argument("--reference", default="BENCH_hotpath.json")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="max allowed calibrated slowdown (default 1.5)")
    parser.add_argument("--calibrate", default="BM_Xoshiro",
                        help="yardstick benchmark for machine-speed normalization "
                             "('' disables and compares raw nanoseconds)")
    args = parser.parse_args()

    fresh = load_times(args.fresh)
    reference, ff_gates = load_reference(args.reference)

    # A reference may be gate-only (empty "benchmarks", e.g. BENCH_lifetime.json):
    # every check is then a same-machine pair ratio, so no calibration yardstick
    # and no absolute-time comparisons are involved.
    scale = 1.0
    if args.calibrate and reference:
        if args.calibrate not in fresh or args.calibrate not in reference:
            raise SystemExit(f"calibration benchmark {args.calibrate!r} missing from a file")
        scale = fresh[args.calibrate] / reference[args.calibrate]
        print(f"machine calibration via {args.calibrate}: {scale:.3f}x reference speed")

    failures = []
    shared = sorted(set(fresh) & set(reference) - {args.calibrate})
    if not shared and not ff_gates:
        raise SystemExit("no shared benchmarks between fresh run and reference")
    for name in shared:
        ratio = fresh[name] / (reference[name] * scale)
        verdict = "FAIL" if ratio > args.threshold else "ok"
        print(f"  {verdict:4s} {name:32s} {fresh[name]:12.1f} ns   {ratio:5.2f}x of reference")
        if ratio > args.threshold:
            failures.append(name)

    ff_failures = []
    if ff_gates:
        print("\nfast-forward speedup gates (same-machine pair ratios):")
        ff_failures = check_fast_forward_gates(fresh, ff_gates)

    if failures or ff_failures:
        if failures:
            print(f"\nperf smoke FAILED: {len(failures)} benchmark(s) regressed past "
                  f"{args.threshold}x: {', '.join(failures)}")
        if ff_failures:
            print(f"\nperf smoke FAILED: {len(ff_failures)} fast-forward gate(s) below their "
                  f"speedup floor: {', '.join(ff_failures)}")
        return 1
    print(f"\nperf smoke passed: {len(shared)} benchmarks within {args.threshold}x of reference"
          + (f", {len(ff_gates)} fast-forward gates above their floors" if ff_gates else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
