#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload alltoall_word --seed 1 --seconds 10 --trace 0

The first run configures and builds the torex library and the perfbench
binary under .bench_build/perfbench (RelWithDebInfo, the repository's
default build type); later runs rebuild incrementally. The binary's
stdout is relayed; the last two lines are the provenance record and the
result object. Metrics catalog.json does not list for the workload are
added as 0; then the metric names and units are checked against
BENCHMARK.json before they are printed. --out appends both as one JSON
line to a file, for perfbench/compare.py.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
MAX_SECONDS = 60
# A run overshoots --seconds by at most one set-up or service epoch.
RUN_SLACK_S = 100


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")


def build(root, bench_dir):
    build_dir = root / ".bench_build" / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(cmd)} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited with {done.returncode}")
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def git_describe(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def add_inapplicable(result, expected, catalog, workload):
    """Adds 0 for every expected metric whose layer does not run on the
    workload; returns a problem if the binary emitted one of them."""
    metrics = result.get("metrics") if isinstance(result, dict) else None
    if not isinstance(metrics, dict):
        return "result has no metrics object"
    for name, unit in expected.items():
        if workload in catalog.get(name, {}).get("workloads", [workload]):
            continue
        if name in metrics:
            return f"metric {name} is emitted, but catalog.json does not list it for {workload}"
        metrics[name] = {"value": 0, "unit": unit}
    return None


def check_result(result, expected):
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result must have exactly correct, attempted, failed and metrics"
    if not isinstance(result["correct"], bool):
        return "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            return f"{key} must be a non-negative integer"
    if result["attempted"] < 1:
        return "attempted must be at least 1"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metric names differ from BENCHMARK.json (missing {missing}, extra {extra})"
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            return f"metric {name} has a non-finite or non-numeric value"
        if entry.get("unit") != expected[name]:
            return f"metric {name} has unit {entry.get('unit')!r}, expected {expected[name]!r}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="append the provenance and result as one JSON line")
    args = parser.parse_args()

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    spec = load_json(root / "BENCHMARK.json")
    catalog = load_json(bench_dir / "catalog.json")["metrics"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (BENCHMARK.json has {workloads})")
    if args.seed < 0 or not 0 < args.seconds <= MAX_SECONDS:
        fail(f"--seed must be non-negative and --seconds in (0, {MAX_SECONDS}]")

    binary = build(root, bench_dir)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + RUN_SLACK_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"benchmark run failed: {error}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"benchmark exited with {done.returncode}")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if len(lines) < 2 or not lines[-2].startswith("provenance "):
        fail("benchmark output lacks the provenance and result lines")
    try:
        provenance = json.loads(lines[-2][len("provenance "):])
        result = json.loads(lines[-1])
    except ValueError as error:
        fail(f"benchmark output is not JSON: {error}")
    expected = expected_metrics(spec, args.trace)
    problem = (add_inapplicable(result, expected, catalog, args.workload)
               or check_result(result, expected))
    if problem:
        fail(problem)

    provenance.update({
        "git_describe": git_describe(root),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
    })
    for line in lines[:-2]:
        print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps({"provenance": provenance, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
