#!/usr/bin/env python3
"""End-to-end benchmark of the nbtinoc simulator.

    python3 e2ebench/run.py --workload loaded-4x4 --seed 1 --seconds 20 --trace 0

Builds the simulator libraries and the two benchmark programs from source
(CMake, Release) into .bench_build/e2ebench at the root of the checkout, then
runs one workload:

  --trace 0  e2e_bench: timed runs through core::run_experiment /
             core::run_fleet with default RunnerOptions (end-to-end metrics)
  --trace 1  e2e_trace: the traced run with per-layer attribution; spans go
             to .bench_build/e2ebench/spans/<workload>-seed<seed>.json

The last line of stdout is the JSON result. Every op's output is
checked against the digest recorded in digests.json for this workload, size
and seed (when one is recorded) and against seed-independent invariants.

Extra flags: --size tiny (smoke-test size), --expect-digest HEX (check
against this digest instead of the recorded one).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("loaded-4x4", "bursty-8x8-shared", "fleet-4x4")
# The benchmark must exit within 180 s; the programs stop by themselves at
# --seconds plus one op, so this only guards against a hung build product.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(target):
    """Configures once, then builds `target`; returns the binary's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD, target)


def recorded_digest(workload, size, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        table = json.load(f)
    return table.get(size, {}).get(workload, {}).get(str(seed))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--expect-digest", default=None)
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        p.error("unknown workload %r (known: %s)" % (args.workload, ", ".join(WORKLOADS)))
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    binary = build("e2e_trace" if args.trace else "e2e_bench")
    if binary is None:
        return 1

    digest = args.expect_digest
    if digest is None:
        digest = recorded_digest(args.workload, args.size, args.seed)
        if digest is None:
            log("no recorded digest for %s/%s seed %d: ops are checked against the "
                "seed-independent invariants only" % (args.workload, args.size, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--size", args.size]
    if digest:
        cmd += ["--expect", digest]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.json" % (args.workload, args.seed))]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (os.path.basename(binary), RUN_TIMEOUT_S))
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("%s exited with code %d" % (os.path.basename(binary), proc.returncode))
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
