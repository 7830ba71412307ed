#!/usr/bin/env python3
"""Self-check for the benchmark: runs every workload at a tiny size, untraced
and traced, and asserts that each run passes its correctness checks and
prints every metric BENCHMARK.json names, with its unit, both in the table
and in the final JSON line. The traced runs must also print the attribution
table.

    python3 perfbench/selfcheck.py
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (workload, trace)
            before = len(failures)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "1", "--trace",
                 str(trace), "--tiny"],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append("%s: exit %d\n%s" %
                                (label, proc.returncode, proc.stderr[-2000:]))
                continue
            report = json.loads(lines[-1])
            table = "\n".join(lines[:-1])
            if report["correct"] is not True or report["attempted"] < 1:
                failures.append("%s: report %s" % (label, lines[-1][:200]))
            for m in bench[key]:
                got = report["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    failures.append("%s: metric %s [%s] missing from JSON" %
                                    (label, m["name"], m["unit"]))
                row = r"^%s\s+\S+\s+%s$" % (re.escape(m["name"]),
                                             re.escape(m["unit"]))
                if not re.search(row, table, re.M):
                    failures.append("%s: metric %s [%s] missing from table" %
                                    (label, m["name"], m["unit"]))
            if trace and "attribution of the last traced round" not in table:
                failures.append("%s: no attribution table" % label)
            print("%-22s %s" % (label, "ok" if len(failures) == before
                                else "FAILED"), flush=True)
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    print("selfcheck %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
