"""Check that two checkouts of ride write the same run directories.

Usage:
    python3 tools/same_outputs.py PARENT_CHECKOUT CHANGE_CHECKOUT

Runs `python -m ride.cli all` from each checkout's src/ at seeds 7 and 8,
once at the default config and once with training epochs cut (autoencoder
2, RAE 30), with one BLAS thread, the two checkouts side by side. Then
prints each run-dir file that differs or that only one side wrote;
timings.json, which holds wall-clock times, is not compared.

A run dir holds only the training capture's flows, so each checkout then
also serves two fresh captures (synth seed 1000 + the run's seed) with
its own run's detector, one flow at a time as a deployment does
(encode_flows of the flow, then embed_flow): the default-shaped one, and
a wide one whose attack payloads run to 1,400 bytes, so its packets also
meet the encoder columns past the training rows' live width. The two
sides' flow embeddings are compared byte for byte, and so are the
encoder weights each side's load_bundle gives, and what each side's
ingest (parse_pcap + group_flows) makes of the two captures: the skip
counts by reason, n_truncated, and the flows in order, each with its id
and its packets in order, every field of each.

Exit status: 0 when report.json, report.md, the served embeddings, the
loaded encoder weights and the ingested flows match in every run (other
files may still differ: read the listing), 1 when any of them differs,
2 when a run fails.
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
# What the serving step writes, by the suffix of its dump file.
SERVED = {"default": "served embeddings (default-shaped capture)",
          "wide": "served embeddings (wide capture)",
          "encoder": "loaded encoder weights",
          "ingest": "ingested flows"}
# Loads the detector in run dir argv[1], writes its encoder weights' bytes
# to argv[3] + ".encoder", and serves the captures of synth seed argv[2]
# one flow at a time, writing the flow embeddings' bytes to argv[3] +
# ".default" and ".wide" and the repr of both ingests to argv[3] + ".ingest".
SERVE = """
import dataclasses, os, sys
import numpy as np
from ride import cli, flow_embedder, packet_ingest, payload_autoencoder, synth_data
run, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bundle = payload_autoencoder.load_bundle(os.path.join(run, cli.ARTIFACTS["autoencoder"]))
rae = flow_embedder.load_rae(os.path.join(run, cli.ARTIFACTS["rae"]))
with open(out + ".encoder", "wb") as fh:
    for layer in bundle.encoder.layers:
        fh.write(layer.w.tobytes() + layer.b.tobytes())
default = synth_data.default_fixture(seed=seed)
benign, attack = default.class_profiles
wide = dataclasses.replace(default, class_profiles=[
    benign, dataclasses.replace(attack, payload_len=(40, 1400))])
ingested = []
for name, spec in (("default", default), ("wide", wide)):
    pcap, _truth = synth_data.generate(spec)
    parsed = packet_ingest.parse_pcap(pcap)
    flows = packet_ingest.group_flows(parsed.packets)
    ingested.append((parsed.n_skipped_by_reason, parsed.n_truncated, [(f.flow_id, [(
        p.timestamp, p.src_addr, p.dst_addr, p.src_port, p.dst_port, p.protocol, p.payload)
        for p in f.packets]) for f in flows]))
    with open(out + "." + name, "wb") as fh:
        fh.write(np.stack([flow_embedder.embed_flow(rae, flow_embedder.encode_flows(
            bundle, [f])[0]).values for f in flows]).tobytes())
with open(out + ".ingest", "w") as fh:
    fh.write(repr(ingested))
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
                if not _side_by_side(case, "serving", argv, [
                        ["-c", SERVE, out, str(SERVE_SEED_OFFSET + seed), out + ".served"]
                        for out in outs]):
                    return 2
                for suffix, what in SERVED.items():
                    same = filecmp.cmp(*(f"{out}.served.{suffix}" for out in outs),
                                       shallow=False)
                    print(f"{case}: {what} " + ("identical" if same else "differ"))
                    serving_differs |= not same
    if reports_differ:
        print("report.json or report.md differs", file=sys.stderr)
    if serving_differs:
        print("the served flow embeddings, the loaded encoder weights or the ingested flows "
              "differ", file=sys.stderr)
    return 1 if reports_differ or serving_differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
