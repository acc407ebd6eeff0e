#!/usr/bin/env python3
"""Runs the benchmark over many seeds and records its first numbers.

For each set and workload, runs `perfbench/run.py` with `--trace 0` on
consecutive seeds and prints each metric's median and quartile spread
(IQR over median) against its bound in BENCHMARK.json; then runs the
traced run on a few more seeds. With `--out`, writes the pooled
median, quartiles and run count of every metric, with the host line,
to a JSON file.

Usage, from the repository root:

    python3 perfbench/baseline.py --sets 2 --runs 10 --trace-runs 5 --out perfbench/baseline.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Set s runs seeds FIRST_SEED + 1000 s + i; the traced runs follow the sets.
FIRST_SEED = 2000


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(command)} exited {out.returncode}:\n{out.stdout}{out.stderr[-2000:]}")
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    return host, json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    host, values, units, sets = {}, {}, {}, {}
    for s in range(args.sets):
        for workload in workloads:
            per_set = {}
            for i in range(args.runs):
                seed = FIRST_SEED + 1000 * s + i
                host, result = run(workload, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{workload} seed {seed}: {result}")
                metrics = result["metrics"]
                print(f"set {s} {workload} seed {seed} " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in metrics.items()), flush=True)
                for name, m in metrics.items():
                    per_set.setdefault(name, []).append(m["value"])
                    values.setdefault(workload, {}).setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            for name, v in per_set.items():
                q = summary(v)
                spread = (q["q3"] - q["q1"]) / q["median"]
                bound = bounds.get(name)
                flag = "" if bound is None or name == "setup_s" else (
                    "  OVER BOUND" if spread > bound else
                    "  over a third of the bound" if spread > bound / 3 else "")
                print(f"set {s} {workload} {name}: median {q['median']:.6g} "
                      f"IQR/median {spread:.3f} (bound {bound}){flag}", flush=True)
                sets.setdefault(workload, {}).setdefault(name, []).append(
                    {"median": q["median"], "iqr_over_median": spread})

    layers, layer_units = {}, {}
    for workload in workloads:
        for i in range(args.trace_runs):
            seed = FIRST_SEED + 1000 * args.sets + i
            host, result = run(workload, seed, seconds, 1)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed} --trace 1: {result}")
            print(f"trace {workload} seed {seed} done", flush=True)
            for name, m in result["metrics"].items():
                layers.setdefault(workload, {}).setdefault(name, []).append(m["value"])
                layer_units[name] = m["unit"]

    if args.out:
        doc = {
            "about": (f"First numbers of the benchmark, from perfbench/baseline.py. end_to_end: "
                      f"{args.sets} set(s) of {args.runs} --trace 0 runs per workload (set s uses "
                      f"seeds {FIRST_SEED}+1000s ...), pooled; sets gives each set's median and "
                      f"quartile spread. per_layer: {args.trace_runs} --trace 1 runs per workload "
                      f"(seeds {FIRST_SEED + 1000 * args.sets} ...). median, q1, q3 as Python "
                      f"statistics.median and statistics.quantiles(n=4); n counts runs."),
            "host": host,
            "run_seconds": seconds,
            "end_to_end": {w: {name: {**summary(v), "unit": units[name], "sets": sets[w][name]}
                               for name, v in ms.items()} for w, ms in values.items()},
            "per_layer": {w: {name: {**summary(v), "unit": layer_units[name]}
                              for name, v in ms.items()}
                          for w, ms in layers.items() if len(next(iter(ms.values()))) >= 2},
        }
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
