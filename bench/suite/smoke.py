#!/usr/bin/env python3
"""Smoke test for bench_suite, registered with ctest by CMakeLists.txt.

    python3 smoke.py BENCH_SUITE_BINARY BENCHMARK_JSON

Runs every workload BENCHMARK.json lists twice at a short duration (the
crash times scale with it): once untraced and once with --trace. Fails
unless both runs exit 0, the traced run prints every metric
BENCHMARK.json names, and both print the same simulated outcome.
Workloads run side by side, one process each, to keep the test short.
"""

import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile

DURATION = "20"


def check_workload(binary, workload, names, tmp):
    """Returns a list of error messages for one workload."""
    base = [binary, f"--workload={workload}", f"--duration={DURATION}"]
    trace = os.path.join(tmp, f"{workload}.layers.json")
    runs = []
    for cmd in (base, base + [f"--trace={trace}"]):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=300)
        if proc.returncode != 0:
            return [f"{workload}: exit {proc.returncode}: "
                    f"{proc.stderr.strip()}"]
        runs.append(proc.stdout.splitlines())
    errors = []
    printed = {line.split()[0] for line in runs[1] if len(line.split()) == 3}
    missing = [n for n in names if n not in printed]
    if missing:
        errors.append(f"{workload}: metrics not printed: {' '.join(missing)}")
    outcomes = [[l for l in lines if l.startswith("outcome ")]
                for lines in runs]
    if not outcomes[0] or outcomes[0] != outcomes[1]:
        errors.append(f"{workload}: simulated outcomes differ: {outcomes}")
    return errors


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(
                max_workers=min(len(workloads), os.cpu_count() or 1)) as pool:
        results = pool.map(
            lambda w: check_workload(binary, w, names, tmp), workloads)
        errors = [e for errs in results for e in errs]
    for e in errors:
        print(e, file=sys.stderr)
    print(f"bench_suite smoke: {len(workloads)} workloads, "
          f"{'FAILED' if errors else 'ok'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
