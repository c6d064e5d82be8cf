#!/usr/bin/env python3
"""Tests of the benchmark itself, not of fabp.

    python3 -m unittest discover -s perfbench -p 'test_*.py'   # from the repo root

They build the benchmark package if needed, feed the response checker
bad responses (perfbench_selftest), check that a run prints every metric
of BENCHMARK.json with its unit, and that run.py refuses to run outside a
fabp source tree.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def run_bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


class CheckerTest(unittest.TestCase):
    def test_checker_rejects_bad_responses(self):
        _, _, selftest = run.build()
        done = subprocess.run([selftest], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertIn("all checks held", done.stdout)
        for case in ("planted hit removed", "one hit below threshold",
                     "hits out of order", "hits from the wrong generation"):
            self.assertIn("ok   " + case, done.stdout)


class OutputTest(unittest.TestCase):
    def test_output_names_every_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run_bench("--workload", "wire_bound", "--seed", "5",
                             "--seconds", "2", "--trace", str(trace))
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], done.stderr)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(sorted(result["metrics"]),
                             sorted(m["name"] for m in listed))
            for m in listed:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"], m["name"])
                self.assertIsInstance(got["value"], (int, float), m["name"])


class RefusalTest(unittest.TestCase):
    def test_refuses_outside_a_source_tree(self):
        lonely = os.path.join(ROOT, ".bench_work", "lonely")
        shutil.rmtree(lonely, ignore_errors=True)
        os.makedirs(lonely)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
            shutil.copytree(HERE, os.path.join(lonely, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("--workload", "wire_bound", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=lonely,
                             script=os.path.join(lonely, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn("{", done.stdout)
        finally:
            shutil.rmtree(lonely, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
