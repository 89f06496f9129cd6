#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise it: steadiness and baseline.

    python3 perfbench/baseline.py --runs 10 --trace-runs 3 [--first-seed 1] \\
        [--workloads stream sweep] [--out perfbench/BASELINE.json]

Runs ``BENCHMARK.json``'s command once per seed (seeds first-seed ..
first-seed + runs - 1) for each workload, one process at a time, untraced;
then ``--trace-runs`` traced runs.  For every end-to-end metric it prints the
median, the quartiles and the spread (interquartile range over the median,
the same statistic the acceptance check uses) against the metric's bound,
and it keeps the medians of the undeclared timings (p50, tail, throughput)
of the ``timing`` line.  The tracing overhead is the traced runs' median
operation latency and throughput over the untraced ones.  With ``--out`` the summary is
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for key in ("env", "timing"):
        result[key] = next((json.loads(line[len(key) + 1:]) for line in lines
                            if line.startswith(key + " ")), None)
    return result


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=3)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(bench["command"], workload, seed, bench["run_seconds"], 0)
                for seed in seeds]
        doc["env"] = runs[0]["env"]
        e2e = {}
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            e2e[name] = s
            flag = ("ok" if s["spread"] <= bound / 3 else
                    "within bound" if s["spread"] <= bound else "TOO WIDE")
            values = " ".join(f"{r['metrics'][name]['value']:.4g}" for r in runs)
            print(f"{workload:7s} {name:14s} median {s['median']:12.4f} "
                  f"IQR/median {s['spread']:.4f} (bound {bound}) {flag}  "
                  f"[{values}]", flush=True)
        timing = {name: {"median": statistics.median(
                             r["timing"][name]["value"] for r in runs),
                         "unit": value["unit"]}
                  for name, value in runs[0]["timing"].items()}
        entry = {"end_to_end": e2e, "timing": timing,
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs)}
        if args.trace_runs:
            traced = [run_once(bench["command"], workload, seed,
                               bench["run_seconds"], 1)
                      for seed in seeds[:args.trace_runs]]
            layers = {}
            for name in traced[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in traced]
                layers[name] = {"median": statistics.median(values),
                                "unit": traced[0]["metrics"][name]["unit"]}
            entry["per_layer"] = layers
            entry["tracing_overhead"] = {
                "op_p50_ratio": layers["trace.op_p50_ms"]["median"]
                / e2e["op_p50_ms"]["median"],
                "ops_per_s_ratio": layers["trace.ops_per_s"]["median"]
                / timing["ops_per_s"]["median"]}
            print(f"{workload:7s} tracing overhead "
                  f"{json.dumps(entry['tracing_overhead'])}", flush=True)
        doc["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
