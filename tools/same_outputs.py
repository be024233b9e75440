"""Check that two checkouts of ride write the same run directories.

Usage:
    python3 tools/same_outputs.py PARENT_CHECKOUT CHANGE_CHECKOUT

Runs `python -m ride.cli all` from each checkout's src/ at seeds 7 and 8,
once at the default config and once with training epochs cut (autoencoder
2, RAE 30), with one BLAS thread, the two checkouts side by side. Then
prints each run-dir file that differs or that only one side wrote;
timings.json, which holds wall-clock times, is not compared.

A run dir holds only the training capture's flows, so each checkout then
also serves a fresh default-shaped capture (synth seed 1000 + the run's
seed) with its own run's detector, one flow at a time as a deployment
does (encode_flows of the flow, then embed_flow), and the two sides' flow
embeddings are compared byte for byte.

Exit status: 0 when report.json, report.md and the served embeddings
match in every run (other files may still differ: read the listing), 1
when any of them differs, 2 when a run fails.
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
SERVE_SEED_OFFSET = 1000
# Serves the capture of synth seed argv[2] with the detector in run dir
# argv[1], one flow at a time, and writes the flow embeddings' bytes to argv[3].
SERVE = """
import os, sys
import numpy as np
from ride import cli, flow_embedder, packet_ingest, payload_autoencoder, synth_data
run, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bundle = payload_autoencoder.load_bundle(os.path.join(run, cli.ARTIFACTS["autoencoder"]))
rae = flow_embedder.load_rae(os.path.join(run, cli.ARTIFACTS["rae"]))
pcap, _truth = synth_data.generate(synth_data.default_fixture(seed=seed))
flows = packet_ingest.group_flows(packet_ingest.parse_pcap(pcap).packets)
with open(out, "wb") as fh:
    fh.write(np.stack([flow_embedder.embed_flow(rae, flow_embedder.encode_flows(
        bundle, [f])[0]).values for f in flows]).tobytes())
"""


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _python(checkout: str, args: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def _side_by_side(case: str, what: str, checkouts: list[str], args: list[list[str]]) -> bool:
    """Runs args[i] in checkouts[i], all at once; False (after printing the
    error) when one fails."""
    runs = [_python(c, a) for c, a in zip(checkouts, args)]
    errs = [run.communicate()[1] for run in runs]
    for checkout, run, err in zip(checkouts, runs, errs):
        if run.returncode:
            print(f"{case}: {what} in {checkout} exited {run.returncode}\n{err}",
                  file=sys.stderr)
            return False
    return True


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(c, "src", "ride")) for c in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reports_differ = serving_differs = False
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
                ride = ["-m", "ride.cli", "all", "--seed", str(seed)]
                ride += ["--config", config] if config else []
                if not _side_by_side(case, "ride all", argv,
                                     [ride + ["--out", out] for out in outs]):
                    return 2
                parent, change = (_files(out) for out in outs)
                differ = sorted(f for f in (parent | change) - EXEMPT
                                if f not in parent or f not in change
                                or not filecmp.cmp(*(os.path.join(o, f) for o in outs),
                                                   shallow=False))
                print(f"{case}: " + (", ".join(differ) if differ else "identical"))
                reports_differ |= any(f in differ for f in REPORTS)
                served = [out + ".served" for out in outs]
                if not _side_by_side(case, "serving", argv, [
                        ["-c", SERVE, out, str(SERVE_SEED_OFFSET + seed), dump]
                        for out, dump in zip(outs, served)]):
                    return 2
                same = filecmp.cmp(*served, shallow=False)
                print(f"{case}: served embeddings " + ("identical" if same else "differ"))
                serving_differs |= not same
    if reports_differ:
        print("report.json or report.md differs", file=sys.stderr)
    if serving_differs:
        print("the served flow embeddings differ", file=sys.stderr)
    return 1 if reports_differ or serving_differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
