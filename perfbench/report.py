#!/usr/bin/env python3
"""Run every perfbench workload and print each metric by name and unit.

Usage (from the repository root):

    python3 perfbench/report.py [--seeds N] [--first-seed S] [--seconds S]
                                [--workload NAME ...] [--trace] [--json PATH]

Each workload runs once per seed (seeds S .. S+N-1) through run.py, in its
own process. For every end-to-end metric the table gives the median over
the seeds, the first and third quartiles (statistics.quantiles, n=4) and
their distance as a share of the median, next to the metric's bound from
BENCHMARK.json; the header gives the range of the runs' host-speed probe
times (see "Host speed" in NOTES.md). --trace adds one traced run per
workload (first seed) and prints its per-layer metrics. --json writes the results to PATH; a point
in perfbench/trajectory.json is such a file plus labels saying what was
measured and where.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import EXTRA_WORKLOADS, build_dir  # run.py sits next to this script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1]), elapsed


def probe_ms(workload, seed):
    """The run's median host-speed probe time, from its run report."""
    report = build_dir() / "perfbench-out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(report.read_text())["detail"]["probe_ms_p50"]["value"]


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    # "value" is the median, so a point reads like a result line's metrics.
    return {"value": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=names + EXTRA_WORKLOADS,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    record = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workload or names:
        runs, probes = [], []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, False))
            probes.append(round(probe_ms(workload, seed), 2))
        entry = {
            "correct": all(r["correct"] for r, _ in runs),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "process_s": [round(elapsed, 1) for _, elapsed in runs],
            "probe_ms": probes,
            "end_to_end": {},
        }
        failed_frac = entry["failed"] / entry["attempted"]
        print(f"\n{workload}: {len(runs)} runs, correct={entry['correct']}, "
              f"failed_frac={failed_frac:g}, process seconds "
              f"{min(entry['process_s'])}-{max(entry['process_s'])}, host probe ms "
              f"{min(probes)}-{max(probes)}")
        print(f"  {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name in units:
            values = [r["metrics"][name]["value"] for r, _ in runs]
            if len(values) < 2:
                print(f"  {name:<14} {units[name]:<6} {values[0]:>12.6g}")
                entry["end_to_end"][name] = {"value": values[0], "unit": units[name]}
                continue
            stats = summarize(values)
            stats["unit"] = units[name]
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:<14} {units[name]:<6} {stats['value']:>12.6g} "
                  f"{stats['q1']:>12.6g} {stats['q3']:>12.6g} {stats['spread']:>7.3f} "
                  f"{bounds[name]:>6}{flag}")
        if args.trace:
            traced, _ = run_once(workload, seeds[0], args.seconds, True)
            entry["per_layer"] = {
                name: {"value": traced["metrics"][name]["value"], "unit": unit}
                for name, unit in layer_units.items()}
            print(f"  traced run (seed {seeds[0]}), correct={traced['correct']}:")
            for name, unit in layer_units.items():
                value = traced["metrics"][name]["value"]
                if value:
                    print(f"    {name:<48} {value:>14.6g} {unit}")
        record["workloads"][workload] = entry
        sys.stdout.flush()  # one workload's table at a time when piped
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
