"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range over median) against
the bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --record seed

Runs go one at a time, each of BENCHMARK.json's ``run_seconds``, cycling
through all of its workloads for each seed. With ``--record LABEL`` the
medians and quartiles, one traced run's per-layer metrics (first seed),
the machine metadata the runs printed and the checked-out commit are
appended as one point to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    machine = json.loads(lines[0].partition("machine=")[2] or "null")
    return json.loads(lines[-1]), machine


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    chosen = [w["name"] for w in bench["workloads"]]
    values = {w: {} for w in chosen}
    failed = {w: 0 for w in chosen}
    machine = None
    for seed in seed_list(args.seeds):
        for workload in chosen:
            result, machine = run_once(workload, seed, seconds, 0)
            failed[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed} failed={result['failed']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    point = {"label": args.record, "commit": commit, "machine": machine,
             "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in chosen:
        point["workloads"][workload] = {"failed": failed[workload]}
        for name, series in values[workload].items():
            stats = summarize(series)
            point["workloads"][workload][name] = stats
            flag = "ok" if stats["spread"] <= bounds[name] / 3 else "WIDE"
            print(f"{workload:<9} {name:<12} median={stats['median']:<12.6g} "
                  f"q1={stats['q1']:<12.6g} q3={stats['q3']:<12.6g} "
                  f"spread={stats['spread']:.4f} bound={bounds[name]} {flag}")
    if args.record:
        seed = seed_list(args.seeds)[0]
        for workload in chosen:
            traced, _ = run_once(workload, seed, seconds, 1)
            point["workloads"][workload]["traced"] = {
                name: metric["value"] for name, metric in traced["metrics"].items()}
        trajectory = {"points": []}
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY, encoding="utf-8") as fh:
                trajectory = json.load(fh)
        trajectory["points"].append(point)
        with open(TRAJECTORY, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
