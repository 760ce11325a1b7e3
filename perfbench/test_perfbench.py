#!/usr/bin/env python3
"""Checks of the repository benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

The metric-name check builds the benchmark (if needed) and runs every
workload for one second in both trace modes.
"""

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer metrics that may read 0 on a workload they are measured on:
# counts of events the workloads are built to avoid.
MAY_BE_ZERO = {"obs.trace.dropped", "error_rate", "svc.health.deferrals", "svc.retry.denied",
               "core.rearrange.parcels_per_call", "obs.trace.overhead_pct"}


def load(path):
    return json.loads(Path(path).read_text())


class BenchmarkSpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = load(ROOT / "BENCHMARK.json")

    def test_top_level_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        for workload in self.spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertRegex(workload["name"], NAME)
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])

    def test_metrics_are_well_formed(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "metric names must be unique")
        for metric in self.spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in self.spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))


class CatalogueTest(unittest.TestCase):
    def setUp(self):
        self.spec = load(ROOT / "BENCHMARK.json")
        self.catalog = load(BENCH / "catalog.json")

    def test_workloads_documented(self):
        self.assertEqual(set(self.catalog["workloads"]), {w["name"] for w in self.spec["workloads"]})
        for name, entry in self.catalog["workloads"].items():
            self.assertTrue(entry.get("why"), f"workload {name} needs a why")

    def test_metrics_documented(self):
        workloads = {w["name"] for w in self.spec["workloads"]}
        documented = self.catalog["metrics"]
        for kind in ("end_to_end", "per_layer"):
            for metric in self.spec[kind]:
                entry = documented.get(metric["name"])
                self.assertIsNotNone(entry, f"{metric['name']} is not in catalog.json")
                self.assertEqual(entry["kind"], kind, metric["name"])
                self.assertEqual(entry["unit"], metric["unit"], metric["name"])
                self.assertTrue(entry["layer"] and entry["measured_by"], metric["name"])
                self.assertTrue(set(entry["workloads"]) <= workloads, metric["name"])
                self.assertTrue(entry["should_move"], metric["name"])
                for target in entry["should_move"]:
                    self.assertEqual(set(target), {"metric", "workload"}, metric["name"])
                    self.assertIn(target["workload"], workloads | {"all"}, metric["name"])
        all_names = {m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        self.assertEqual(set(documented), all_names, "catalog.json documents unknown metrics")


class EmittedMetricsTest(unittest.TestCase):
    """Every workload emits exactly the documented names, in both modes."""

    def test_emitted_names_match_documentation(self):
        spec = load(ROOT / "BENCHMARK.json")
        catalog = load(BENCH / "catalog.json")["metrics"]
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                        capture_output=True, text=True, timeout=900, check=False)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), {m["name"] for m in spec[kind]})
                    for name, entry in metrics.items():
                        applies = workload in catalog[name]["workloads"]
                        if not applies:
                            self.assertEqual(entry["value"], 0, f"{name} must read 0 on {workload}")
                        elif kind == "end_to_end" or name not in MAY_BE_ZERO:
                            self.assertNotEqual(entry["value"], 0, f"{name} on {workload}")


class CompareToolTest(unittest.TestCase):
    PROV = {"workload": "alltoall_word", "trace": 0, "build_type": "RelWithDebInfo",
            "compiler": "g++ 12", "cpu_model": "cpu", "nproc": 4, "crc32_backend": "pclmul",
            "shape": "8x8x8", "payload_bytes": 8, "seconds": 10}

    def write(self, path, values, **prov):
        with open(path, "w") as out:
            for i, value in enumerate(values):
                record = {"provenance": dict(self.PROV, seed=i, **prov),
                          "result": {"correct": True, "attempted": 1, "failed": 0,
                                     "metrics": {"call_p50_ms": {"value": value, "unit": "ms"}}}}
                out.write(json.dumps(record) + "\n")

    def compare(self, *args):
        return subprocess.run([sys.executable, str(BENCH / "compare.py"), *args,
                               "--spec", str(ROOT / "BENCHMARK.json")],
                              capture_output=True, text=True, timeout=60, check=False)

    def test_verdicts(self):
        with tempfile.TemporaryDirectory() as tmp:
            base, same, slow, noisy = (Path(tmp) / n for n in ("a", "b", "c", "d"))
            self.write(base, [10.0, 10.1, 9.9, 10.0, 10.05])
            self.write(same, [10.1, 10.0, 10.2, 9.95, 10.0])
            self.write(slow, [13.0, 13.1, 12.9, 13.0, 13.05])
            self.write(noisy, [5.0, 15.0, 10.0, 7.0, 14.0])
            done = self.compare(str(base), str(same))
            self.assertEqual(done.returncode, 0, done.stdout)
            self.assertIn("same", done.stdout)
            done = self.compare(str(base), str(slow))
            self.assertEqual(done.returncode, 1)
            self.assertIn("regressed", done.stdout)
            done = self.compare(str(base), str(noisy))
            self.assertEqual(done.returncode, 1)
            self.assertIn("unresolved", done.stdout)
            done = self.compare(str(base))
            self.assertEqual(done.returncode, 0, done.stdout)
            self.assertIn("steady", done.stdout)

    def test_refuses_mismatched_provenance(self):
        with tempfile.TemporaryDirectory() as tmp:
            base, other = Path(tmp) / "a", Path(tmp) / "b"
            self.write(base, [10.0, 10.1, 9.9])
            self.write(other, [10.0, 10.1, 9.9], compiler="clang 16")
            done = self.compare(str(base), str(other))
            self.assertEqual(done.returncode, 2)
            self.assertIn("compiler", done.stderr)
            done = self.compare(str(base), str(other), "--force")
            self.assertEqual(done.returncode, 0, done.stdout)


if __name__ == "__main__":
    unittest.main()
