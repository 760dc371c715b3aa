"""Smoke test of the benchmark itself.

    python3 evalbench/test_smoke.py        (or: python3 -m pytest evalbench)

Checks that every name the traced run wraps still resolves in ``src/nl2sql``,
so a rename fails here instead of silently zeroing a layer; that
BENCHMARK.json and layers.json name the metrics the code computes; and that
one short seeded run per workload and mode exits 0, passes its correctness
checks and prints every metric with a unit.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class SmokeTest(unittest.TestCase):
    def test_wrapped_names_resolve(self):
        for module_name, path, _ in tracing.WRAPS:
            with self.subTest(name=f"{module_name}.{path}"):
                tracing.resolve(module_name, path)

    def test_declared_metrics_match_code(self):
        bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.RESULT_END_TO_END))
        units = dict(run.END_TO_END)
        for metric in bench["end_to_end"]:
            self.assertEqual(metric["unit"], units[metric["name"]])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS))
        mapped = [name for group in _load(os.path.join(HERE, "layers.json"))["groups"]
                  for name in group["metrics"]]
        self.assertEqual(sorted(mapped), sorted(name for name, _, _ in tracing.PER_LAYER))

    def test_short_runs_print_every_metric(self):
        bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
        expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=300)
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    for metric in expected[trace]:
                        got = result["metrics"][metric["name"]]
                        self.assertEqual(got["unit"], metric["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                    self.assertEqual(len(result["metrics"]), len(expected[trace]))
                    if not trace:
                        printed = {line.split()[0]: line.split()[-1]
                                   for line in lines[:-1] if line.startswith("  ")}
                        self.assertEqual(printed, dict(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
