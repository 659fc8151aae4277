"""Tests of run.py's output contract.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DECLARED = [{"name": "setup_s", "unit": "s"}, {"name": "rate_per_s", "unit": "1/s"}]


def result(**metrics):
    return {"correct": True, "attempted": 5, "failed": 0,
            "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}


class ContractTest(unittest.TestCase):
    def test_complete_result_has_no_problems(self):
        r = result(setup_s=(0.81, "s"), rate_per_s=(120.5, "1/s"))
        self.assertEqual(run.contract_problems(r["metrics"], DECLARED), [])

    def test_missing_null_and_misunit_metrics_are_problems(self):
        r = result(setup_s=(None, "s"), rate_per_s=(3.0, "ms"))
        problems = run.contract_problems(r["metrics"], DECLARED)
        self.assertEqual(len(problems), 2)
        self.assertIn("setup_s missing", problems[0])
        self.assertIn("declared 1/s", problems[1])

    def test_final_line_has_exactly_the_contract_keys(self):
        r = result(setup_s=(0.8127, "s"), rate_per_s=(1.2034, "1/s"), extra=(1.0, "s"))
        line = json.loads(run.final_line(r, DECLARED, []))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {"setup_s", "rate_per_s"})
        self.assertEqual(line["metrics"]["setup_s"], {"value": 0.8127, "unit": "s"})
        self.assertTrue(line["correct"])

    def test_a_contract_problem_makes_the_run_incorrect(self):
        r = result(setup_s=(0.8, "s"))
        line = json.loads(run.final_line(r, DECLARED, ["metric rate_per_s missing"]))
        self.assertFalse(line["correct"])

    def test_declared_metrics_match_the_benchmark_file(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)

    def test_outside_a_checkout_it_fails_without_a_result(self):
        here = os.path.dirname(os.path.abspath(__file__))
        with tempfile.TemporaryDirectory() as empty:
            proc = subprocess.run(
                [sys.executable, os.path.join(here, "run.py"), "--workload", "tune", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
