"""Shared helpers of the benchmark scripts: paths, BENCHMARK.json, running
one benchmark process, and the quartile arithmetic the reports use."""

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)


def load_spec(repo=REPO):
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    """Build tree: $CARGO_TARGET_DIR when set (relative to the repository
    root), else .bench_build/."""
    return os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def runs_dir():
    """Runner output, traces and recorded run sets."""
    return os.path.join(REPO, ".bench_runs")


def run_bench(repo, workload, seed, trace=0, extra=()):
    """Run `python3 perfbench/run.py` in checkout `repo`; returns
    (exit code, result dict or None, stdout and stderr)."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)] + list(extra)
    proc = subprocess.run(argv, cwd=repo, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def load_runs(path):
    """Recorded runs: one JSON object per line with keys workload, seed and
    metrics {name: value} (compare.py adds side and pair)."""
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def values_of(runs, workload, metric):
    return [r["metrics"][metric] for r in runs
            if r["workload"] == workload and metric in r["metrics"]]
