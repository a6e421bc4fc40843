#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed and prints, for every metric, the median,
the quartiles and the range of its values across the runs at reference
speed, and the median, IQR and range of the raw host-clock values.  A
metric whose spread exceeds a third of its bound in BENCHMARK.json is
marked "WIDE".

    python3 perfbench/steady.py [--workloads paper-grid,irregular]
        [--seeds 1,2,3,4,5] [--seconds N]

Run it from the repository root; it runs the command BENCHMARK.json names
with --trace 0.  --workloads narrows a tuning run to the workload whose
figures spread most.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    result = json.loads(out[-1])
    raw = {}
    for line in out:
        if line.startswith("raw-metrics "):
            raw = json.loads(line[len("raw-metrics "):])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {out[-1]}")
    return result["metrics"], raw


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (lambda x: x / abs(med)) if med else (lambda x: 0.0)
    return med, q1, q3, rel(q3 - q1), rel(max(values) - min(values))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in args.workloads.split(","):
        runs = [run(bench["command"], workload, s, args.seconds)
                for s in seeds]
        print(f"== {workload}: seeds {args.seeds}, {args.seconds} s")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'range/med':>9} {'raw median':>14} "
              f"{'raw iqr':>8} {'raw range':>9} {'bound':>6}")
        for name, first in runs[0][0].items():
            values = [r[0][name]["value"] for r in runs]
            med, q1, q3, iqr, rng = spread(values)
            raw = [r[1][name]["value"] for r in runs if name in r[1]]
            raw_med, raw_iqr, raw_rng = ("", "", "")
            if len(raw) == len(runs):
                rm, _, _, ri, rr = spread(raw)
                raw_med, raw_iqr, raw_rng = f"{rm:14.6g}", f"{ri:8.4f}", f"{rr:9.4f}"
            bound = bounds.get(name)
            wide = bound is not None and iqr > bound / 3
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {iqr:8.4f} "
                  f"{rng:9.4f} {raw_med:>14} {raw_iqr:>8} {raw_rng:>9} "
                  f"{'' if bound is None else bound:>6}"
                  f"{'  WIDE' if wide else ''}  [{first['unit']}]")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
