#!/usr/bin/env python3
"""Records the output digest of every workload for a range of seeds.

    python3 e2ebench/record_digests.py --size full --seeds 0-99 [--jobs 2]

Runs one op per (workload, seed) through `e2e_bench --print-digest 1` and
merges the digests into digests.json, which run.py passes to the benchmark programs as
the expected output. Re-record only after a change that is meant to alter
simulated results; the simulator promises byte-identical results otherwise.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def digest(binary, workload, seed, size):
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--size", size, "--print-digest", "1"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--seeds", default="0-99", help="inclusive range lo-hi")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--workload", action="append", help="default: every workload")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    workloads = args.workload or list(run.WORKLOADS)
    binary = run.build("e2e_bench")
    if binary is None:
        return 1

    path = os.path.join(run.HERE, "digests.json")
    with open(path) as f:
        table = json.load(f)
    jobs = [(w, s) for w in workloads for s in range(lo, hi + 1)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = {pool.submit(digest, binary, w, s, args.size): (w, s) for w, s in jobs}
        for future in concurrent.futures.as_completed(futures):
            w, s = futures[future]
            table.setdefault(args.size, {}).setdefault(w, {})[str(s)] = future.result()
            print("%s seed %d: %s" % (w, s, table[args.size][w][str(s)]), flush=True)
    table = {size: {w: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
                    for w, seeds in sorted(by_workload.items())}
             for size, by_workload in sorted(table.items())}
    with open(path, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
