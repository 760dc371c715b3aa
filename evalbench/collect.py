#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds and summarise it.

    python3 evalbench/collect.py [--workloads replay_warm,cold_latency,exec_heavy]
        [--seeds 1-10] [--seconds 30] [--trace 0|1] [--out FILE]

Prints each run's metric table, then for every workload and metric the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles`` with n=4) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json. ``--out`` writes the
summary as JSON. Exits 1 when any run fails or fails its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description="multi-seed benchmark summary")
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    summary = {}
    ok = True
    for workload in workloads:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            if proc.returncode or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("\n".join(lines[:-1]), flush=True)
        rows = {}
        for name, series in values.items():
            median = statistics.median(series)
            if len(series) > 1:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            limit = bounds.get(name, 0.0) / 3
            flag = "" if not limit or spread < limit or name == "setup_s" else "  <-- over"
            print(f"  {workload:13s} {name:46s} median {median:12.4f} "
                  f"spread {spread:7.4f} (bound/3 {limit:.4f}){flag}")
            rows[name] = {"median": median, "spread": spread, "values": series}
        summary[workload] = rows
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
