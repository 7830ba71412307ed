#!/usr/bin/env python3
"""Steadiness check for the end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 101]
                                    [--workloads fleet,studio]

Runs each workload --runs times (untraced, BENCHMARK.json's run_seconds,
one seed per run) and prints, per end-to-end metric, the median and the
spread: the distance between the first and third quartile of the runs'
values (statistics.quantiles(values, n=4)) as a share of their median, next
to the metric's bound. The per-run values and spreads are also written to
.bench_build/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not report["correct"]:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(report["metrics"][name]["value"])
            print("%s seed %d: %.1f s  %s" % (
                workload, seed, time.time() - t0,
                "  ".join("%s=%.5g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        summary[workload] = {}
        for name, v in values.items():
            q = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q[2] - q[0]) / median if median else float("nan")
            summary[workload][name] = {"median": median, "spread": spread,
                                       "values": v}
            print("  %-20s median %12.6g  spread %.4f  bound %.2f%s" % (
                name, median, spread, bounds[name],
                "" if name == "setup_s" or spread <= bounds[name] / 3
                else "  <-- above a third of the bound"), flush=True)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, build, "steadiness.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print("wrote " + out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
