"""Run-to-run spread of the end-to-end metrics, as the benchmark's bounds
are checked: one run per seed, then for each metric the distance between
the first and third quartiles of its values as a share of their median.

Usage, from the root of a checkout:
    python3 perfbench/spread.py WORKLOAD [WORKLOAD ...] [--seeds 1,2,...]

Runs one process at a time. Prints a row per metric and flags each spread
that is not below a third of the metric's bound (setup_s is exempt from
the spread rule); raw results go to .perfbench_out/spread-<workload>.json.
Exits 1 when a run fails its checks or a spread is flagged.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({"seed": seed, "info": json.loads(done.stdout.splitlines()[-2]),
                         "result": result})
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        with open(os.path.join(ROOT, ".perfbench_out", f"spread-{workload}.json"), "w") as fh:
            json.dump(runs, fh, indent=1)
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = spread(values)
            flagged = name != "setup_s" and s >= bound / 3
            ok &= not flagged
            print(f"  {name:22s} median {statistics.median(values):12.6g}  spread {s:7.4f}"
                  f"  bound {bound:5.3f}{'  <-- not below bound/3' if flagged else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
