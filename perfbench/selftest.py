"""Self-test of the benchmark: a smoke-sized run of every workload, traced
and untraced, each ending in seconds.

Usage, from the root of a checkout:
    python3 perfbench/selftest.py

Checks that each run exits 0 with a well-formed last line, passes its
output checks, and emits exactly the metric names and units listed in
BENCHMARK.json; workloads defined in workloads.py but left out of
BENCHMARK.json are run too. Also checks that the benchmark refuses to run,
without printing a result, from a directory holding only BENCHMARK.json
and the benchmark's own files.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 180


def run(bench: dict, cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = bench["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(bench: dict, done: subprocess.CompletedProcess, trace: int) -> list[str]:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"checks failed: {done.stderr.strip()[-500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != expected:
        problems.append(f"metrics missing {sorted(set(expected) - set(emitted))}, "
                        f"extra {sorted(set(emitted) - set(expected))}, units differ "
                        f"{sorted(k for k in expected if k in emitted and emitted[k] != expected[k])}")
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    if bad:
        problems.append(f"non-numeric values {bad}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    failures = 0
    for workload in workloads.WORKLOADS:  # also those left out of BENCHMARK.json
        for trace in (0, 1):
            problems = check_result(bench, run(bench, ROOT, workload, trace), trace)
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else problems}")

    # Without the program's sources the benchmark must fail, not report.
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bench, bare, bench["workloads"][0]["name"], 0)
        refused = done.returncode != 0 and '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare)
    failures += not refused
    print(f"bare directory: {'refused' if refused else 'NOT refused'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
