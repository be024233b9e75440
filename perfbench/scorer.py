"""Child process: one cold start of a scorer, then warm scoring.

Imports ride and loads the config; loads the detector (the autoencoder,
the RAE and the JSHC-winning quantized tree) as a deployment would; reads
the capture, ingests it and scores each flow once (the cold pass); then
scores it in warm passes (workloads.score_passes) for SECONDS, at least
one pass. Prints one JSON line: time.monotonic() after the config, after
the detector and after the cold pass (the parent subtracts its spawn
time), each warm pass's ingest time, per-flow latencies and labels, and
this process's peak RSS.

Usage: python3 scorer.py SRC_DIR CONFIG_JSON DETECTOR_DIR PCAP SECONDS
"""
import json
import os
import resource
import sys
import time

sys.path[:0] = [sys.argv[1], os.path.dirname(os.path.abspath(__file__))]

import workloads  # noqa: E402  (imports ride)
from ride import cli  # noqa: E402

_src, config_path, out_dir, pcap_path, seconds = sys.argv[1:6]
cfg = cli.load_config(config_path)
stamps = [time.monotonic()]
detector = workloads.load_detector(out_dir, cfg)
stamps.append(time.monotonic())
with open(pcap_path, "rb") as fh:
    pcap = fh.read()
for flow in workloads.ingest(pcap):
    workloads.score_flow(detector, flow)
stamps.append(time.monotonic())
scored = workloads.score_passes(detector, pcap, float(seconds), 1)
print(json.dumps({"stamps": stamps, **scored,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
