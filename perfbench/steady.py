#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

For each workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
A spread at or above a third of its bound is flagged, setup_s's too,
and makes the script exit 1. With --trajectory it appends one JSON line
holding those numbers, the commit, nproc and the Go version, so later
changes can be compared against a committed baseline without rerunning
it. With --compare it also checks each median against the last entry of
a trajectory file: a median worse than that entry's by more than the
metric's bound is flagged.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads serve-mix --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --trajectory perfbench/trajectory.jsonl --commit <sha>
    python3 perfbench/steady.py --seeds 1-10 --compare perfbench/trajectory.jsonl
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed checks")
    return result, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--trajectory", default="")
    ap.add_argument("--commit", default="")
    ap.add_argument("--compare", default="", help="trajectory file whose last entry the medians are checked against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    base = {}
    if args.compare:
        with open(args.compare) as f:
            base = json.loads(f.read().strip().splitlines()[-1])["workloads"]

    entry = {"commit": args.commit, "date": time.strftime("%Y-%m-%d"),
             "nproc": os.cpu_count(), "seeds": seeds, "seconds": seconds,
             "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
             "workloads": {}}
    steady = True
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        walls = []
        for seed in seeds:
            result, wall = run_once(bench, name, seed, seconds)
            walls.append(wall)
            for m in bench["end_to_end"]:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{name} seed {seed}: {wall:.1f}s " +
                  " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        rows = {}
        print(f"\n{name}: {len(seeds)} runs, mean wall {statistics.mean(walls):.1f}s")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} {'worse':>7}")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= m["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
                steady = False
            worse = ""
            ref = base.get(name, {}).get(m["name"])
            if ref:
                change = (med - ref["median"]) / ref["median"]
                w = -change if m["better"] == "higher" else change
                worse = f"{w:>7.3f}"
                if w > m["bound"]:
                    flag += "  <-- median worse than the baseline by more than the bound"
                    steady = False
            print(f"  {m['name']:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} {m['bound']:>6} {worse:>7}{flag}")
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "values": v}
        print()
        entry["workloads"][name] = rows
    if args.trajectory:
        with open(args.trajectory, "a") as f:
            f.write(json.dumps(entry) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
