#!/usr/bin/env python3
"""Run one perfbench workload and print its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator from src/ and the perfbench binary into .bench_build/
(or $CARGO_TARGET_DIR when set) on first use, runs the workload, and
relays its output. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
Run reports and span files land in <build dir>/perfbench-out/.

Exits non-zero, printing no result, when the simulator's sources are
missing, the build fails, or the binary's output breaks that format.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# Runnable, with the same metrics, but not among BENCHMARK.json's gated
# workloads: its 4-lane step is too unsteady between runs (see NOTES.md).
EXTRA_WORKLOADS = ["facility_diurnal"]


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        die(f"cannot read BENCHMARK.json: {error}")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out)])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for command in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(command))
    return out / "perfbench"


def check_result(line, declared):
    """The result line must carry exactly the declared metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "attempted is below 1"
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(declared):
        return "metric names differ from BENCHMARK.json"
    for name, unit in declared.items():
        entry = metrics[name]
        if entry.get("unit") != unit:
            return f"{name}: unit {entry.get('unit')!r}, declared {unit!r}"
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name}: value {value!r} is not a finite number"
    return None


def main():
    benchmark = load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]] + EXTRA_WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be a whole number")
    if not 0 < args.seconds <= 120:
        die("--seconds must be in (0, 120]")

    binary = build()
    report_dir = build_dir() / "perfbench-out"
    report_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", str(report_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"{args.workload} exited with code {proc.returncode}")

    lines = proc.stdout.rstrip("\n").split("\n")
    section = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark[section]}
    problem = check_result(lines[-1], declared)
    if problem:
        die(f"{args.workload}: {problem}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
