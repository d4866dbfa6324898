#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at its tiny size.

    python3 e2ebench/smoke_test.py

Builds the benchmark programs (through run.py) and checks that every workload prints
every metric BENCHMARK.json names, with its unit, in both modes; that an
unknown workload is rejected; and that a wrong digest counts as a failed op.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402  (every runnable workload, listed or not)


def run(*extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "0.5", "--size", "tiny"]
    return subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True, text=True)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_listed_workloads_are_runnable(self):
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]}, set(WORKLOADS))

    def test_every_workload_prints_every_metric(self):
        for w in WORKLOADS:
            for trace, metrics in ((0, self.spec["end_to_end"]), (1, self.spec["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    proc = run("--workload", w, "--seed", str(SEED), "--trace", str(trace))
                    self.check_metrics(result_of(proc), metrics)

    def test_end_to_end_metrics_are_nonzero(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = result_of(run("--workload", w, "--seed", str(SEED)))
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_unknown_workload_is_rejected(self):
        proc = run("--workload", "no-such-workload", "--seed", str(SEED))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        for binary in ("e2e_bench", "e2e_trace"):
            path = os.path.join(ROOT, ".bench_build", "e2ebench", binary)
            proc = subprocess.run([path, "--workload", "no-such-workload", "--seed", "1",
                                   "--seconds", "1"], capture_output=True, text=True)
            self.assertNotEqual(proc.returncode, 0, binary)
            self.assertEqual(proc.stdout.strip(), "", binary)

    def test_wrong_digest_counts_as_failed_op(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    result = result_of(run("--workload", w, "--seed", str(SEED),
                                           "--trace", str(trace),
                                           "--expect-digest", "0123456789abcdef"))
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
