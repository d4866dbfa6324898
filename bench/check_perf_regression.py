#!/usr/bin/env python3
"""Gate a change's bench_micro_perf results against its merge-base.

Two checks, both same-machine ratios (absolute nanoseconds are never
compared across machines):

1. Regression pairs (--base/--head). CI builds bench_micro_perf at the
   merge-base and at HEAD and runs the two binaries alternately, one JSON
   file per run. File i of --base pairs with file i of --head. For every
   benchmark the two sides share, the per-pair ratio HEAD/base is taken
   and the check fails when the median ratio exceeds --threshold.
   Interleaving spreads machine drift (frequency scaling, noisy
   neighbors) over both sides, and the median discards outlier pairs.

2. Speedup floors (the reference's "fast_forward_gates"). Each entry names
   a slow/fast benchmark pair measured in the same run; the ratio slow/fast
   must stay above min_speedup. These are evaluated on the HEAD runs (or on
   the positional file alone, for gate-only references such as
   BENCH_lifetime.json).

Within one file, a benchmark repeated via --benchmark_repetitions counts at
its fastest repetition: interference only ever adds time.

The default 1.5x threshold is deliberately loose: shared CI runners jitter
by tens of percent, so this only catches gross regressions (an accidental
per-cycle allocation, string hash or O(VCs) walk on the hot path).
"""

import argparse
import json
import statistics
import sys


def load_times(path):
    with open(path) as f:
        data = json.load(f)
    if "benchmarks" not in data:
        raise SystemExit(f"{path}: not a google-benchmark JSON file")
    times = {}
    for bench in data["benchmarks"]:
        if isinstance(bench, dict) and "real_time" in bench and "aggregate_name" not in bench:
            name = bench["name"].split("/repeats:")[0]
            t = float(bench["real_time"])
            times[name] = min(times.get(name, t), t)
    return times


def fastest(runs):
    """Per-benchmark minimum over several runs."""
    out = {}
    for run in runs:
        for name, t in run.items():
            out[name] = min(out.get(name, t), t)
    return out


def check_pairs(base_runs, head_runs, threshold):
    """Median HEAD/base ratio per shared benchmark; returns the failures."""
    shared = sorted(set.intersection(*(set(r) for r in base_runs + head_runs)))
    if not shared:
        raise SystemExit("no benchmark is present in every base and head run")
    failures = []
    print(f"HEAD vs merge-base over {len(base_runs)} interleaved pairs (median ratio):")
    for name in shared:
        ratios = [h[name] / b[name] for b, h in zip(base_runs, head_runs)]
        median = statistics.median(ratios)
        verdict = "FAIL" if median > threshold else "ok"
        print(f"  {verdict:4s} {name:40s} {median:5.2f}x  "
              f"(pairs {min(ratios):.2f}..{max(ratios):.2f})")
        if median > threshold:
            failures.append(name)
    return failures


def check_gates(fresh, gates):
    """Same-machine speedup floors. If parking breaks (the skipping engine
    silently stops skipping) or skipping becomes as expensive as stepping,
    the pair collapses toward 1x and this fails."""
    failures = []
    for gate in gates:
        fast, slow = gate["fast"], gate["slow"]
        if fast not in fresh or slow not in fresh:
            print(f"  SKIP speedup gate {slow} / {fast}: benchmark missing from the run")
            continue
        speedup = fresh[slow] / fresh[fast]
        verdict = "FAIL" if speedup < gate["min_speedup"] else "ok"
        print(f"  {verdict:4s} {slow} / {fast}: {speedup:.1f}x "
              f"(floor {gate['min_speedup']:.2f}x)")
        if speedup < gate["min_speedup"]:
            failures.append(f"{slow}/{fast}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", nargs="?",
                        help="gate-only mode: one bench_micro_perf JSON checked against the "
                             "reference's speedup floors")
    parser.add_argument("--base", nargs="+", default=[], help="merge-base run JSONs, in order")
    parser.add_argument("--head", nargs="+", default=[], help="HEAD run JSONs, in order")
    parser.add_argument("--reference", default="BENCH_hotpath.json",
                        help="JSON holding the fast_forward_gates speedup floors")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="max allowed median HEAD/base ratio (default 1.5)")
    args = parser.parse_args()

    if args.fresh is None and not args.head:
        parser.error("give either a run to gate, or --base and --head runs")
    if len(args.base) != len(args.head):
        parser.error(f"--base has {len(args.base)} runs but --head has {len(args.head)}")

    with open(args.reference) as f:
        gates = json.load(f).get("fast_forward_gates", [])

    failures = []
    if args.head:
        base_runs = [load_times(p) for p in args.base]
        head_runs = [load_times(p) for p in args.head]
        failures += check_pairs(base_runs, head_runs, args.threshold)
        gated = fastest(head_runs)
    else:
        gated = load_times(args.fresh)
    if gates:
        print("\nspeedup gates (same-run pair ratios):")
        failures += check_gates(gated, gates)

    if failures:
        print(f"\nperf smoke FAILED: {', '.join(failures)}")
        return 1
    print("\nperf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
