#!/usr/bin/env python3
"""Steadiness report for the paper-workload benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b] [--out FILE]

Runs ``perfbench/run.py`` RUNS times per workload, each run with its own
seed (1..RUNS), and repeats that SETS times.  For every end-to-end
metric of every set it reports each run's value, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median against the metric's bound from
BENCHMARK.json: ``ok`` below a third of the bound, ``within bound``
below the bound, ``TOO WIDE`` otherwise.  With two sets or more it also
reports how far each later set's median moved from the first set's, in
the metric's worse direction, against the bound.  The report is
Markdown, printed to standard output and also written to FILE when
given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: output check failed" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def verdict(spread, bound):
    if spread < bound / 3:
        return "ok"
    return "within bound" if spread <= bound else "TOO WIDE"


def worse_by(first, later, better):
    """How much worse [later] is than [first], as a share of [first]."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]
    lines = ["# Steadiness report", "",
             "%d set(s) of %d runs per workload, seeds 1..%d, %d s each; "
             "spread = (q3 - q1) / median." % (args.sets, args.runs, args.runs,
                                               args.seconds), ""]

    def emit(block):
        lines.extend(block)
        print("\n".join(block), flush=True)

    medians = []  # per set: {(workload, metric): median}
    for k in range(args.sets):
        emit(["## Set %d" % (k + 1), ""])
        medians.append({})
        for w in workloads:
            runs = [run(w, seed, args.seconds) for seed in range(1, args.runs + 1)]
            block = ["### %s" % w, "",
                     "| metric | unit | median | q1 | q3 | spread | bound | | runs, seeds 1..%d |"
                     % args.runs,
                     "|---|---|---|---|---|---|---|---|---|"]
            for m in metrics:
                values = [r[m["name"]] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians[k][(w, m["name"])] = med
                block.append("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.2f | %s | %s |"
                             % (m["name"], m["unit"], med, q1, q3, spread,
                                m["bound"], verdict(spread, m["bound"]),
                                " ".join("%.4g" % v for v in values)))
            emit(block + [""])
    for k in range(1, args.sets):
        block = ["## Set %d against set 1" % (k + 1), "",
                 "Median of set %d worse than set 1's by (negative: better):" % (k + 1), "",
                 "| workload | " + " | ".join(m["name"] for m in metrics) + " |",
                 "|---|" + "---|" * len(metrics)]
        for w in workloads:
            cells = []
            for m in metrics:
                d = worse_by(medians[0][(w, m["name"])], medians[k][(w, m["name"])],
                             m["better"])
                cells.append("%+.4f%s" % (d, "" if d <= m["bound"] else " OVER"))
            block.append("| %s | %s |" % (w, " | ".join(cells)))
        emit(block + [""])
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(lines))


if __name__ == "__main__":
    main()
