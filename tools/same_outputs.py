"""Check that two checkouts of ride write the same run directories.

Usage:
    python3 tools/same_outputs.py PARENT_CHECKOUT CHANGE_CHECKOUT

Runs `python -m ride.cli all` from each checkout's src/ at seeds 7 and 8,
once at the default config and once with training epochs cut (autoencoder
2, RAE 30), with one BLAS thread, the two checkouts side by side. Then
prints each run-dir file that differs or that only one side wrote;
timings.json, which holds wall-clock times, is not compared.

Exit status: 0 when report.json and report.md match in every run (other
files may still differ: read the listing), 1 when either differs, 2 when a
run fails.
"""
from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile

SEEDS = (7, 8)
CONFIGS = {"default": None,
           "cut-epochs": {"train": {"autoencoder": {"epochs": 2}, "rae": {"epochs": 30}}}}
EXEMPT = {"timings.json"}
REPORTS = ("report.json", "report.md")


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _ride_all(checkout: str, seed: int, config: str | None, out: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "ride.cli", "all", "--seed", str(seed), "--out", out]
    if config:
        cmd += ["--config", config]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(c, "src", "ride")) for c in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reports_differ = False
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for name, overrides in CONFIGS.items():
            config = None
            if overrides:
                config = os.path.join(tmp, f"{name}.json")
                with open(config, "w") as fh:
                    json.dump(overrides, fh)
            for seed in SEEDS:
                case = f"{name}/seed-{seed}"
                outs = [os.path.join(tmp, side, case) for side in ("parent", "change")]
                runs = [_ride_all(c, seed, config, out) for c, out in zip(argv, outs)]
                errs = [run.communicate()[1] for run in runs]
                for checkout, run, err in zip(argv, runs, errs):
                    if run.returncode:
                        print(f"{case}: ride all in {checkout} exited {run.returncode}\n{err}",
                              file=sys.stderr)
                        return 2
                parent, change = (_files(out) for out in outs)
                differ = sorted(f for f in (parent | change) - EXEMPT
                                if f not in parent or f not in change
                                or not filecmp.cmp(*(os.path.join(o, f) for o in outs),
                                                   shallow=False))
                print(f"{case}: " + (", ".join(differ) if differ else "identical"))
                reports_differ |= any(f in differ for f in REPORTS)
    if reports_differ:
        print("report.json or report.md differs", file=sys.stderr)
    return 1 if reports_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
