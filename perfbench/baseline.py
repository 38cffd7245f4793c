#!/usr/bin/env python3
"""Records the benchmark's baseline: every workload run with several seeds.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload of BENCHMARK.json it runs perfbench/run.sh once per seed
with tracing off. For every end-to-end metric of the result line, and every
figure the metric table prints beside them, it writes every value, the
median, the quartiles and the spread: the distance between the quartiles as
a share of the median. It also records the machine, GOMAXPROCS and the
commit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    gomaxprocs, printed, in_table = None, {}, False
    for line in lines[:-1]:
        if line.startswith("workload ") and "GOMAXPROCS" in line:
            gomaxprocs = int(line.rsplit(" ", 1)[1])
        elif line.split()[:3] == ["metric", "value", "unit"]:
            in_table = True
        elif in_table:
            name, value, unit = line.split()
            if name not in result["metrics"]:
                printed[name] = {"value": float(value), "unit": unit}
    return result, printed, gomaxprocs


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "os": platform.platform()}


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="perfbench/baseline.json")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    result = {"machine": machine(), "commit": commit(), "run_seconds": seconds,
              "seeds": seeds, "gomaxprocs": None, "workloads": {}}
    for name in names:
        per_metric, per_printed, failed, attempted = {}, {}, 0, 0
        for seed in seeds:
            res, printed, gmp = run(name, seed, seconds)
            result["gomaxprocs"] = gmp
            failed += res["failed"]
            attempted += res["attempted"]
            for into, ms in ((per_metric, res["metrics"]), (per_printed, printed)):
                for m, v in ms.items():
                    into.setdefault(m, {"unit": v["unit"], "values": []})["values"].append(v["value"])
            shown = {**res["metrics"], **printed}
            print(name, seed, {m: round(v["value"], 3) for m, v in shown.items()},
                  file=sys.stderr, flush=True)
        result["workloads"][name] = {
            "failed": failed, "attempted": attempted,
            "metrics": {m: {"unit": d["unit"], **summary(d["values"])} for m, d in per_metric.items()},
            "printed": {m: {"unit": d["unit"], **summary(d["values"])} for m, d in per_printed.items()},
        }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
