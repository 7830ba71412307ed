#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

Builds the system and the benchmark harness from source (Release, into
.bench_build/ or $CARGO_TARGET_DIR), runs one workload in its own process,
and passes the harness's report through. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; --trace 0
reports BENCHMARK.json's end_to_end metrics, --trace 1 its per_layer ones.
The exit status is non-zero when the build fails, a correctness check fails,
or the report does not match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configure once, then build incrementally; serialized by a lock file."""
    os.makedirs(out_dir, exist_ok=True)
    cmake_dir = os.path.join(out_dir, "perfbench")
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        stamp = os.path.join(cmake_dir, "source_dir.txt")
        if os.path.exists(stamp):
            with open(stamp) as f:
                if f.read() != HERE:
                    shutil.rmtree(cmake_dir)  # Configured for another tree.
        if not os.path.exists(stamp):
            os.makedirs(cmake_dir, exist_ok=True)
            cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                return None
            with open(stamp, "w") as f:
                f.write(HERE)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", cmake_dir, "-j", jobs, "--target",
               "espk_perfbench", "espk_perfbench_traced"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return cmake_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return [w["name"] for w in spec["workloads"]], {
        m["name"]: m["unit"] for m in metrics}


def check_report(report, expected):
    problems = []
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("report keys are %s" % sorted(report))
        return problems
    got = report["metrics"]
    for name, unit in expected.items():
        if name not in got:
            problems.append("metric %s missing" % name)
        elif got[name].get("unit") != unit:
            problems.append("metric %s has unit %r, expected %r" %
                            (name, got[name].get("unit"), unit))
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    for name in got:
        if name not in expected:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    if not isinstance(report["attempted"], int) or report["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(report["failed"], int):
        problems.append("failed must be a whole number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken fleet and run length (self-check)")
    args = parser.parse_args()

    workloads, expected = expected_metrics(args.trace)
    if args.workload not in workloads:
        log("unknown workload %r (BENCHMARK.json lists %s)" %
            (args.workload, ", ".join(workloads)))
        return 2
    out_dir = build_dir()
    cmake_dir = build(out_dir)
    if cmake_dir is None:
        log("build failed")
        return 3

    binary = "espk_perfbench_traced" if args.trace else "espk_perfbench"
    cmd = [os.path.join(cmake_dir, binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("harness exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    lines = out.rstrip("\n").splitlines()
    if not lines:
        log("harness printed nothing (exit %d)" % proc.returncode)
        return 5
    print("\n".join(lines[:-1]), flush=True)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        log("harness's last line is not JSON (exit %d)" % proc.returncode)
        return 5
    problems = check_report(report, expected)
    for p in problems:
        log("report: " + p)
    print(json.dumps(report), flush=True)
    if proc.returncode != 0 or problems or report.get("correct") is not True:
        log("benchmark FAILED (harness exit %d)" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
