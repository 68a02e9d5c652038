#!/usr/bin/env python3
"""Steadiness report: the spread of every end-to-end metric over N runs.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1]
        [--workloads figures,exact_scale] [--out FILE]
    python3 perfbench/steadiness.py --from FILE [--against FILE2]

Runs each workload N times, seed k on run k (workloads interleaved), and
records every run as one JSON line in --out (default
.bench_runs/steadiness-<time>.jsonl). It then prints, per workload and
metric, the median, the quartiles as statistics.quantiles(n=4) gives them,
and the spread (q3 - q1) / median beside the metric's bound in
BENCHMARK.json. A spread under a third of the bound reads "steady", under
the bound "within", else "WIDE" (setup_s is reported, not judged). Rows
marked "(host)" show the host's slowdown and the times before they were
divided by it, for comparison; they are not judged.

With --against, the report also checks that the second set's median is not
worse than the first's by more than the bound ("agree" / "DRIFT"). Exit
code 1 when any judged metric reads WIDE or DRIFT.
"""

import argparse
import json
import os
import re
import sys
import time

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

# run.py's line with the host's slowdown and the times before normalizing.
HOST_LINE = re.compile(r"^# \S+ host: (.*)$", re.M)
HOST_FIELD = re.compile(r"(\w+)=(\S+)")


def record_runs(spec, workloads, runs, seed_base, out_path):
    with open(out_path, "a") as out:
        for k in range(runs):
            seed = seed_base + k
            for w in workloads:
                code, result, text = benchlib.run_bench(benchlib.REPO, w, seed)
                if result is None or not result.get("correct"):
                    sys.stderr.write(text)
                    sys.exit("run failed: %s seed %d (exit %d)" % (w, seed, code))
                rec = {"workload": w, "seed": seed,
                       "metrics": {n: m["value"] for n, m in result["metrics"].items()}}
                host = HOST_LINE.search(text)
                if host:
                    rec["host"] = {k: float(v) for k, v in HOST_FIELD.findall(host.group(1))}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print("  %s seed %d: %s" % (w, seed, " ".join(
                    "%s=%.6g" % (n, v) for n, v in rec["metrics"].items())), flush=True)


def report(spec, runs, against=None):
    bad = False
    workloads = [w["name"] for w in spec["workloads"]]
    print("%-12s %-12s %4s %12s %12s %12s %8s %6s %7s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            vals = benchlib.values_of(runs, w, m["name"])
            if not vals:
                continue
            q1, med, q3 = benchlib.quartiles(vals)
            s = benchlib.spread(vals)
            bound = m["bound"]
            judged = m["name"] != "setup_s"
            verdict = "steady" if s < bound / 3 else "within" if s <= bound else "WIDE"
            if not judged:
                verdict = "(info)"
            bad = bad or verdict == "WIDE"
            line = "%-12s %-12s %4d %12.6g %12.6g %12.6g %8.4f %6.3f %7s" % (
                w, m["name"], len(vals), q1, med, q3, s, bound, verdict)
            if against is not None:
                other = benchlib.values_of(against, w, m["name"])
                if other:
                    _, med2, _ = benchlib.quartiles(other)
                    worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                    agree = "agree" if worse <= bound else "DRIFT"
                    bad = bad or agree == "DRIFT"
                    line += "  second median %.6g (%+.2f%% worse) %s" % (med2, 100 * worse, agree)
            print(line)
        for name in sorted({k for r in runs if r["workload"] == w for k in r.get("host", {})}):
            vals = [r["host"][name] for r in runs
                    if r["workload"] == w and name in r.get("host", {})]
            q1, med, q3 = benchlib.quartiles(vals)
            print("%-12s %-12s %4d %12.6g %12.6g %12.6g %8.4f %6s %7s" % (
                w, name, len(vals), q1, med, q3, benchlib.spread(vals), "", "(host)"))
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--out", default=None)
    parser.add_argument("--from", dest="from_file", default=None,
                        help="report on recorded runs instead of running")
    parser.add_argument("--against", default=None, help="a second recorded set to compare")
    args = parser.parse_args()

    spec = benchlib.load_spec()
    if args.from_file:
        runs = benchlib.load_runs(args.from_file)
    else:
        workloads = args.workloads.split(",") if args.workloads else [
            w["name"] for w in spec["workloads"]]
        os.makedirs(benchlib.runs_dir(), exist_ok=True)
        out = args.out or os.path.join(
            benchlib.runs_dir(), "steadiness-%s.jsonl" % time.strftime("%Y%m%d-%H%M%S"))
        print("recording to " + out)
        record_runs(spec, workloads, args.runs, args.seed_base, out)
        runs = benchlib.load_runs(out)
    against = benchlib.load_runs(args.against) if args.against else None
    sys.exit(1 if report(spec, runs, against) else 0)


if __name__ == "__main__":
    main()
