#!/usr/bin/env python3
"""Run one workload of the gpucomm benchmark and print its metrics.

    python3 perfbench/run.py --workload figures|exact_scale|serve_sweep|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of the repository. The first run configures and builds
the gpucomm library and the runner (perfbench/CMakeLists.txt, Release) into
.bench_build/ (or $CARGO_TARGET_DIR); later runs only check the build.

Untraced (--trace 0) the last line of standard output is one JSON object
with the end-to-end metrics of BENCHMARK.json; traced (--trace 1) it holds
the per-layer metrics. Host times are divided by the host's slowdown, which
the runner measures with a fixed reference kernel between ops (see
runner/speed.hpp). Lines before the JSON carry the environment header, the
op counts and the slowdown with the raw times; `all` prints that block for
each workload in turn. The exit
code is 0 only when every op ran and every output matched its reference.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

SETUP_SAMPLES = 11  # set-up is timed this many times per run; the median counts
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build the runner; returns its path."""
    build_dir = benchlib.build_dir()
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", benchlib.BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail("cmake configure failed; see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench_runner", "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            fail("build failed; see " + log_path)
    return os.path.join(build_dir, "perfbench_runner")


def run_binary(argv, out_path):
    """Run the runner binary with stdout to `out_path`; returns (exit code,
    last stdout line as JSON or None, peak RSS in KiB, start time in ns)."""
    with open(out_path, "w") as out:
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, cwd=benchlib.REPO)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                fail("runner timed out after %d s" % RUN_TIMEOUT_S)
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, usage.ru_maxrss, start_ns


def run_workload(spec, args, workload, seconds):
    """Run one workload, print its lines; returns True when correct."""
    runner = build()
    base = [runner, "--workload", workload, "--seed", str(args.seed), "--data", args.data]
    if args.max_ops > 0:
        base += ["--max-ops", str(args.max_ops)]
    stem = os.path.join(benchlib.runs_dir(), "%s-seed%d" % (workload, args.seed))

    # Set-up times as measured, and divided by the host's slowdown measured
    # right after set-up.
    raw_setup_s, setup_s = [], []

    def add_setup(res, start_ns):
        raw_setup_s.append((res["ready_ns"] - start_ns) * 1e-9)
        setup_s.append(raw_setup_s[-1] / res["ready_slowdown"])

    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            code, res, _, start_ns = run_binary(base + ["--setup-only"], stem + ".setup.out")
            if code != 0 or res is None:
                fail("set-up run failed (exit %d)" % code)
            add_setup(res, start_ns)

    argv = base + ["--seconds", str(seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--trace-file", stem + ".trace.json"]
    code, res, rss_kb, start_ns = run_binary(argv, stem + ".out")
    if res is None or "attempted" not in res:
        fail("runner printed no result (exit %d); see %s.out" % (code, stem))
    add_setup(res, start_ns)

    env = res["env"]
    print("# env host_cpus=%s compiler=%s build_type=%s version=%s" % (
        env["host_cpus"], env["compiler"], env["build_type"], env["version"]))
    attempted, failed = res["attempted"], res["failed"]
    print("# %s seed=%d trace=%d: %d passes x %d ops, op_fail_ratio=%g (%d/%d)" % (
        workload, args.seed, args.trace, res["passes"], res["ops_per_pass"],
        failed / max(1, attempted), failed, attempted))
    print("# %s host: slowdown=%.4f raw_setup_s=%.6f raw_wall_s=%.4f raw_cpu_s=%.4f" % (
        workload, res["slowdown"], statistics.median(raw_setup_s), res["raw_wall_s"],
        res["raw_cpu_s"]))
    for message in res["failures"]:
        print("# failure: " + message)

    if args.trace:
        values = res["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": res["wall_s"],
            "cpu_s": res["cpu_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "peak_rss_mb": rss_kb / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail("runner did not report metric '%s'" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    correct = code == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="run only the first N ops of each pass (tests)")
    parser.add_argument("--data", default="data",
                        help="reference tables, relative to the repository root")
    args = parser.parse_args()

    spec = benchlib.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload '%s' (have %s, or all)" % (args.workload, ", ".join(names)))
    for needed in ("src/gpucomm", "data"):
        if not os.path.isdir(os.path.join(benchlib.REPO, needed)):
            fail("no %s/ beside perfbench/: run from a full checkout of the repository" % needed)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    os.makedirs(benchlib.runs_dir(), exist_ok=True)

    workloads = names if args.workload == "all" else [args.workload]
    correct = [run_workload(spec, args, w, seconds) for w in workloads]
    sys.exit(0 if all(correct) else 1)


if __name__ == "__main__":
    main()
