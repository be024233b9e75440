"""Benchmark for the ride pipeline.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (pipeline-default, search-wide or score-stream) in this
process and prints, as its last stdout line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-module metrics of a traced
run, whose spans are also written to .perfbench_out/. The line before it
records the machine: nproc, Python, numpy, BLAS and its thread count.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# One thread: an operation split over two vCPUs waits for the slower one,
# and on a shared 2-vCPU VM that made timings spread 10-30% between runs,
# against 3-8% single-threaded (alternating runs of the same seeds).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy is first imported

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "flows_per_s": "1/s",
    "flow_latency_p50_ms": "ms",
}
# Reported on the info line of every run and with the traced run, not
# bounded. Detector quality is exact for a seed but, at the epoch counts a run
# can afford, varies by more than any bound from seed to seed; the latency
# tail follows load from outside the process (p90 varied by 10-27% and p99
# by 30-70% between runs on a 2-vCPU shared VM).
REPORTED = {
    "flow_latency_p90_ms": "ms",
    "flow_latency_p99_ms": "ms",
    "teacher_f1": "ratio",
    "tree_f1": "ratio",
    "qtree_f1": "ratio",
    "score_f1": "ratio",
    "hw_power_mw": "mW",
}


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload so that it ends in seconds")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ride", "__init__.py")):
        print(f"error: no ride sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    work = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    recorder = tracing.SpanRecorder() if args.trace else None
    try:
        result = workloads.run(workload, args.seed, args.seconds, recorder,
                               args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if recorder is None:
        units = END_TO_END
        values = result.metrics
    else:
        recorder.dump(os.path.join(OUT, f"trace-{tag}.json"))
        measured = tracing.per_module_metrics(recorder)
        measured["trace.overhead_s"] = (result.metrics["trace.overhead_s"], "s")
        measured.update({k: (result.metrics[k], u) for k, u in REPORTED.items()})
        units = {k: u for k, (_, u) in measured.items()}
        values = {k: v for k, (v, _) in measured.items()}
    for failure in result.checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "machine": machine_info(), **result.info,
                      "reported": {k: result.metrics[k] for k in REPORTED}}))
    print(json.dumps({
        "correct": not result.checks.failures,
        "attempted": result.checks.attempted,
        "failed": len(result.checks.failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
