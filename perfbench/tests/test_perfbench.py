"""Tests of the benchmark itself: input determinism, metric coverage, and
smoke-sized runs of every workload with the correctness gate on.

    python3 -m unittest discover -s perfbench/tests

Run from the root of the source tree; the first test builds the program.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE.parent / "run.py"
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = run.WORKLOADS


def run_benchmark(workload, seed, trace, *extra):
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=False)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def digest(self, workload, seed):
        out = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--digest-only"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_inputs_are_a_function_of_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, 5)
                self.assertEqual(first, self.digest(workload, 5))
                self.assertNotEqual(first, self.digest(workload, 6))

    def test_benchmark_json_declares_every_metric_with_a_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(metric["unit"], metric["name"])
        self.assertIn("setup_s", run.declared_metrics(trace=False))

    def test_smoke_runs_report_every_metric_and_pass_the_gate(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    out = run_benchmark(workload, 3, trace)
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    lines = out.stdout.splitlines()
                    self.assertTrue(lines[0].startswith("provenance "))
                    result = json.loads(lines[-1])
                    self.assertEqual(run.check_result(result, bool(trace)), [])
                    self.assertEqual(result["failed"], 0)

    def test_a_wrong_output_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = run_benchmark(workload, 3, 0, "--inject-mismatch")
                self.assertNotEqual(out.returncode, 0)
                self.assertIn("correctness check failed", out.stderr)
                self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
