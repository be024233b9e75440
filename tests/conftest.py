"""Shared helpers for the test suite."""
import io
import csv

import numpy as np
import pytest
from hypothesis import settings

from ride import synth_data, packet_ingest

# Property tests draw the same examples on every run (derandomize) and keep
# no example database, so tier-1 stays deterministic; max_examples bounds
# their cost to seconds.
settings.register_profile("ride", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("ride")


def labeled_flows_from_spec(spec):
    """Generate a corpus and push it through the real ingest path."""
    pcap, truth_text = synth_data.generate(spec)
    capture = packet_ingest.parse_pcap(pcap)
    flows = packet_ingest.group_flows(capture.packets)
    truth_rows = list(csv.DictReader(io.StringIO(truth_text)))
    return packet_ingest.label_flows(flows, truth_rows).flows


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.PCG64(1234))
