#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds bench_suite
(Release) from the checkout's sources into $CARGO_TARGET_DIR/suite
(default .bench_build/suite); later calls rebuild only what changed.
It then runs bench_suite with the same seed again and again until S
seconds have passed (at least MIN_REPS times) and prints, as the last
line of stdout, one JSON object:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Each metric is the median over the repetitions. With --trace 0 they are
BENCHMARK.json's end_to_end metrics, taken from bench_suite's untraced
pass; with --trace 1 its per_layer metrics, for which every repetition
adds bench_suite's traced pass. Operations are submitted transactions. A
repetition that fails a check makes the run incorrect, and every
transaction of the run then counts as failed. Every repetition must
reproduce the first one's simulated outcome.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
MIN_REPS = 3
REP_TIMEOUT_S = 120
# Stop starting repetitions once one more could overrun this, so a run
# ends well inside its 180 s allowance.
RUN_LIMIT_S = 140


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds bench_suite; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    # Serialise builds of one checkout; the lock is released on close.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SUITE_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "bench_suite", "-j", jobs])
        with open(log_path, "w") as log:
            for cmd in steps:
                if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=850).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_suite")


def run_rep(cmd, json_path):
    """One bench_suite process; returns (report, error message or None)."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None, f"bench_suite took longer than {REP_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, (proc.stderr.strip() or
                      f"bench_suite exited {proc.returncode}")
    with open(json_path) as f:
        return json.load(f), None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src to build from")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "suite")
    binary = build(build_dir)
    json_path = os.path.join(build_dir, "rep.json")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--json={json_path}",
           f"--expected={os.path.join(SUITE_DIR, 'expected.json')}"]
    if args.trace:
        cmd.append(f"--trace={os.path.join(build_dir, 'layers.json')}")

    reports, error = [], None
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        report, error = run_rep(cmd, json_path)
        if error is None and reports and \
                report["outcome"] != reports[0]["outcome"]:
            error = (f"check determinism: repetition {len(reports) + 1} gave "
                     f"{report['outcome']}, the first gave "
                     f"{reports[0]['outcome']}")
        if error is not None:
            break
        reports.append(report)
        now = time.monotonic()
        print(f"rep {len(reports)}: " + " ".join(
            f"{m['name']}={report['metrics'][m['name']]['value']:.6g}"
            for m in wanted if m["name"] in report["metrics"]))
        if len(reports) >= MIN_REPS and (
                now - start >= args.seconds or
                now - start + (now - rep_start) > RUN_LIMIT_S):
            break

    attempted = sum(r["submitted"] for r in reports)
    failed = sum(r["submitted"] - r["committed"] for r in reports)
    metrics = {}
    for m in wanted:
        values = [r["metrics"][m["name"]]["value"] for r in reports
                  if m["name"] in r["metrics"]]
        if reports and len(values) != len(reports):
            error = error or f"bench_suite printed no metric {m['name']}"
        elif values:
            metrics[m["name"]] = {"value": statistics.median(values),
                                  "unit": m["unit"]}
    if error is not None:
        print(f"run.py: {error}", file=sys.stderr)
        # The failed repetition's transactions are unknown; count at
        # least one operation so a failure is never reported as 0 of 0.
        attempted = max(attempted, 1)
        failed = attempted
    print(json.dumps({"correct": error is None, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
