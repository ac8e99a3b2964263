#!/usr/bin/env python3
"""Build and run the paper-workload benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all`` to run every
workload in turn.  The script builds ``perfbench/main.exe`` from the
source tree it sits in (dune, shared build cache off, so nothing is
written outside the tree), runs it, checks that the metrics it printed
are exactly the ones BENCHMARK.json lists for the mode, and passes its
output through.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits with a non-zero code, without a result line, when the tree does
not hold the program's sources or the build fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s here: run from a checkout of the full source tree" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return spec, [m["name"] for m in spec[key]]


def run_one(workload, seed, seconds, trace):
    """Run one workload; return (summary lines, parsed result)."""
    proc = subprocess.run(
        [EXE, "--workload", workload, "--seed", seed, "--seconds", seconds,
         "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode), 1)
    result = json.loads(lines[-1])
    _, names = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(names):
        fail("%s printed metrics %s, BENCHMARK.json lists %s"
             % (workload, sorted(result["metrics"]), sorted(names)), 1)
    return lines[:-1], result


def main(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            fail("unknown argument %r" % flag)
        opts[flag] = next(it, None)
        if opts[flag] is None:
            fail("%s needs a value" % flag)
    if opts["--workload"] is None or opts["--trace"] not in ("0", "1"):
        fail("usage: run.py --workload NAME|all --seed N --seconds S --trace 0|1")
    build()
    spec, _ = expected_metrics(opts["--trace"])
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if opts["--workload"] == "all" else [opts["--workload"]]
    if any(w not in names for w in workloads):
        fail("unknown workload %r (one of %s, or all)"
             % (opts["--workload"], ", ".join(names)))
    results = {}
    for w in workloads:
        lines, result = run_one(w, opts["--seed"], opts["--seconds"], opts["--trace"])
        print("\n".join(lines))
        results[w] = result
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, m): v
                        for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }))


if __name__ == "__main__":
    main(sys.argv[1:])
