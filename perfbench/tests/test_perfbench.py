#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny op subsets.

    python3 perfbench/tests/test_perfbench.py

They build the runner on first use (like run.py) and take about a minute.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import benchlib  # noqa: E402

SPEC = benchlib.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--max-ops", "4", "--seconds", "1"]


def data_digest():
    h = hashlib.sha256()
    data = os.path.join(benchlib.REPO, "data")
    for name in sorted(os.listdir(data)):
        with open(os.path.join(data, name), "rb") as f:
            h.update(name.encode() + f.read())
    return h.hexdigest()


class PerfbenchTest(unittest.TestCase):
    def run_tiny(self, workload, trace=0, extra=()):
        return benchlib.run_bench(benchlib.REPO, workload, seed=3, trace=trace,
                                  extra=TINY + list(extra))

    def test_each_workload_reports_every_end_to_end_metric(self):
        before = data_digest()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, text = self.run_tiny(w)
                self.assertEqual(code, 0, text)
                self.assertTrue(result["correct"], text)
                self.assertGreaterEqual(result["attempted"], 4)
                self.assertEqual(result["failed"], 0)
                units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                self.assertEqual(set(result["metrics"]), set(units))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                    self.assertGreater(m["value"], 0, name)
        self.assertEqual(data_digest(), before, "a run changed data/")

    def test_host_line_reports_slowdown_and_raw_times(self):
        code, result, text = self.run_tiny(WORKLOADS[0])
        self.assertEqual(code, 0, text)
        host = re.search(r"^# %s host: (.*)$" % WORKLOADS[0], text, re.M)
        self.assertIsNotNone(host, text)
        fields = dict(f.split("=") for f in host.group(1).split())
        self.assertEqual(set(fields), {"slowdown", "raw_setup_s", "raw_wall_s", "raw_cpu_s"})
        for name, value in fields.items():
            self.assertGreater(float(value), 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, text = self.run_tiny(w, trace=1)
                self.assertEqual(code, 0, text)
                names = {m["name"] for m in SPEC["per_layer"]}
                self.assertEqual(set(result["metrics"]), names)
                self.assertIn("trace.overhead_frac", result["metrics"])

    def test_altered_reference_row_fails(self):
        cases = {"figures": ("fig03_alps.csv", 1), "exact_scale": ("fig09_alps.csv", 1)}
        os.makedirs(benchlib.runs_dir(), exist_ok=True)
        for w, (csv, row) in cases.items():
            with self.subTest(workload=w):
                tmp = tempfile.mkdtemp(dir=benchlib.runs_dir())
                try:
                    data = os.path.join(tmp, "data")
                    shutil.copytree(os.path.join(benchlib.REPO, "data"), data)
                    path = os.path.join(data, csv)
                    with open(path) as f:
                        lines = f.read().splitlines()
                    cells = lines[row].split(",")
                    cells[2] = cells[2] + "1"  # one digit more in a measured column
                    lines[row] = ",".join(cells)
                    with open(path, "w") as f:
                        f.write("\n".join(lines) + "\n")
                    code, result, text = self.run_tiny(w, extra=["--data", data])
                finally:
                    shutil.rmtree(tmp)
                self.assertNotEqual(code, 0, text)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)
                self.assertIn(csv, text)

    def test_refuses_to_run_without_the_repository(self):
        os.makedirs(benchlib.runs_dir(), exist_ok=True)
        tmp = tempfile.mkdtemp(dir=benchlib.runs_dir())
        try:
            shutil.copy(os.path.join(benchlib.REPO, "BENCHMARK.json"), tmp)
            shutil.copytree(benchlib.BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

    def test_spread_matches_statistics_quantiles(self):
        vals = [1.0, 2.0, 3.0, 4.0, 10.0]
        q1, med, q3 = benchlib.quartiles(vals)
        self.assertEqual(med, 3.0)
        self.assertAlmostEqual(benchlib.spread(vals), (q3 - q1) / med)


if __name__ == "__main__":
    unittest.main()
