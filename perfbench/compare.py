#!/usr/bin/env python3
"""Compare two checkouts (parent and change) on every workload.

    python3 perfbench/compare.py --parent DIR --change DIR [--pairs 10]
        [--workloads figures,serve_sweep] [--out FILE]
    python3 perfbench/compare.py --from FILE

Both directories must hold the same perfbench/ and BENCHMARK.json (the
benchmark code is identical on both sides); each builds in its own
.bench_build/. The tool runs --pairs pairs per workload, alternating which
side runs first, pair k on seed k. serve_sweep additionally runs the same
number of pairs on HELD_OUT_SEED, which the benchmark's own steadiness runs
(seeds 1-10) never use, reported as its own row.

For each workload and end-to-end metric it prints each side's median and
quartiles, the change's win fraction (ties count for neither side) and a
verdict, with the bounds of BENCHMARK.json:
  improved    over at least 10 pairs, the change wins >= 9/10 of them and
              the medians differ by more than the parent's interquartile
              distance;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread is wider than the bound and the
              change does not beat every parent run with every run;
  unchanged   otherwise.
Every run is recorded to --out (default .bench_runs/compare-<time>.jsonl).
"""

import argparse
import hashlib
import json
import os
import sys
import time

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

MIN_PAIRS = 10  # fewer pairs never read "improved"
HELD_OUT_SEED = 7919
HELD_OUT_ROW = "serve_sweep@%d" % HELD_OUT_SEED


def bench_digest(repo):
    h = hashlib.sha256()
    with open(os.path.join(repo, "BENCHMARK.json"), "rb") as f:
        h.update(f.read())
    bench = os.path.join(repo, "perfbench")
    for root, dirs, files in sorted(os.walk(bench)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, bench).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def record(out, sides, workload, row, seed, pair):
    order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
    for side in order:
        code, result, text = benchlib.run_bench(sides[side], workload, seed)
        if result is None or not result.get("correct"):
            sys.stderr.write(text)
            sys.exit("%s run failed: %s seed %d (exit %d)" % (side, workload, seed, code))
        rec = {"workload": row, "seed": seed, "side": side, "pair": pair,
               "metrics": {n: m["value"] for n, m in result["metrics"].items()}}
        out.write(json.dumps(rec) + "\n")
        out.flush()
    print("  pair %d %s seed %d done" % (pair, row, seed), flush=True)


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, metric):
    direction, bound = metric["better"], metric["bound"]
    q1p, mp, q3p = benchlib.quartiles(parent)
    _, mc, _ = benchlib.quartiles(change)
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    win_frac = wins / pairs if pairs else 0.0
    worse_by = (mc - mp) / mp if direction == "lower" else (mp - mc) / mp
    if worse_by > bound:
        v = "worse"
    elif (pairs >= MIN_PAIRS and win_frac >= 0.9 and better(mc, mp, direction)
          and abs(mc - mp) > q3p - q1p):
        v = "improved"
    elif benchlib.spread(parent) > bound and not all(
            better(c, p, direction) for c in change for p in parent):
        v = "unresolved"
    else:
        v = "unchanged"
    return win_frac, -worse_by, v


def summary(values):
    q1, med, q3 = benchlib.quartiles(values)
    return "%.5g [%.5g, %.5g]" % (med, q1, q3)


def report(spec, runs):
    rows = []
    for r in runs:
        if r["workload"] not in rows:
            rows.append(r["workload"])
    print("%-16s %-12s %32s %32s %8s %5s %10s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "gain", "wins", "verdict"))
    for row in rows:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            by_pair = {}
            for r in runs:
                if r["workload"] == row and name in r["metrics"]:
                    by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
            complete = [v for _, v in sorted(by_pair.items()) if len(v) == 2]
            if not complete:
                continue
            parent = [v["parent"] for v in complete]
            change = [v["change"] for v in complete]
            win_frac, gain, v = verdict(parent, change, metric)
            print("%-16s %-12s %32s %32s %+7.2f%% %5.2f %10s" % (
                row, name, summary(parent), summary(change), 100 * gain, win_frac, v))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--out", default=None)
    parser.add_argument("--from", dest="from_file", default=None,
                        help="report on recorded runs instead of running")
    args = parser.parse_args()

    spec = benchlib.load_spec()
    if args.from_file:
        report(spec, benchlib.load_runs(args.from_file))
        return
    if not args.parent or not args.change:
        parser.error("--parent and --change are required unless --from is given")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if bench_digest(sides["parent"]) != bench_digest(sides["change"]):
        sys.exit("perfbench/ or BENCHMARK.json differ between the two checkouts")
    if args.pairs < MIN_PAIRS:
        print("warning: fewer than %d pairs can show no gain" % MIN_PAIRS, file=sys.stderr)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    os.makedirs(benchlib.runs_dir(), exist_ok=True)
    out_path = args.out or os.path.join(
        benchlib.runs_dir(), "compare-%s.jsonl" % time.strftime("%Y%m%d-%H%M%S"))
    print("recording to " + out_path)
    with open(out_path, "a") as out:
        for pair in range(args.pairs):
            for w in workloads:
                record(out, sides, w, w, pair + 1, pair)
            if "serve_sweep" in workloads:
                record(out, sides, "serve_sweep", HELD_OUT_ROW, HELD_OUT_SEED, pair)
    report(spec, benchlib.load_runs(out_path))


if __name__ == "__main__":
    main()
