"""Synthetic traffic generator: allocation, validation, and the parse
round trip through the real ingest path."""
import collections
import csv
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ride import packet_ingest, synth_data as sd
from conftest import labeled_flows_from_spec


def _tiny_spec(seed=3, noise=0.02, schedule="split_halves", n_flows=20):
    return sd.TrafficSpec(
        n_flows=n_flows,
        packets_per_flow=(2, 4),
        class_profiles=[
            sd.ClassProfile(name="benign", motifs=[b"AAAA-motif"],
                            noise_rate=noise, payload_len=(30, 60)),
            sd.ClassProfile(name="attack", motifs=[b"BBBB-motif", b"CCCC-motif"],
                            schedule=schedule, noise_rate=noise,
                            payload_len=(30, 60)),
        ],
        class_mix=[0.5, 0.5],
        seed=seed,
    )


# ------------------------------------------------------------- allocation

def test_allocate_classes_exact_counts():
    out = sd._allocate_classes([0.7, 0.3], 10)
    assert out.count(0) == 7 and out.count(1) == 3
    out = sd._allocate_classes([0.5, 0.5], 5)
    assert out.count(0) == 3 and out.count(1) == 2  # remainder tie -> lower id
    thirds = sd._allocate_classes([1 / 3, 1 / 3, 1 / 3], 10)
    assert [thirds.count(c) for c in range(3)] == [4, 3, 3]
    assert len(sd._allocate_classes([1.0], 7)) == 7


def test_allocate_classes_always_sums_to_n():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        raw = rng.random(k) + 0.05
        mix = list(raw / raw.sum())
        n = int(rng.integers(1, 200))
        out = sd._allocate_classes(mix, n)
        assert len(out) == n


# ------------------------------------------------------------- validation

def test_profile_validation():
    with pytest.raises(ValueError):
        sd.ClassProfile(name="x", motifs=[b"m"], schedule="bogus")
    with pytest.raises(ValueError):
        sd.ClassProfile(name="x", motifs=[b"m"], schedule="split_halves")
    with pytest.raises(ValueError):
        sd.ClassProfile(name="x", motifs=[])


def test_spec_validation():
    profile = sd.ClassProfile(name="a", motifs=[b"m"])
    with pytest.raises(ValueError):
        sd.TrafficSpec(n_flows=0, packets_per_flow=(1, 2),
                       class_profiles=[profile], class_mix=[1.0])
    with pytest.raises(ValueError):
        sd.TrafficSpec(n_flows=5, packets_per_flow=(3, 2),
                       class_profiles=[profile], class_mix=[1.0])
    with pytest.raises(ValueError):
        sd.TrafficSpec(n_flows=5, packets_per_flow=(1, 2),
                       class_profiles=[profile], class_mix=[0.5, 0.5])
    with pytest.raises(ValueError):
        sd.TrafficSpec(n_flows=5, packets_per_flow=(1, 2),
                       class_profiles=[profile], class_mix=[0.9])


# ----------------------------------------------------------- determinism

def test_generate_is_deterministic():
    a_pcap, a_csv = sd.generate(_tiny_spec())
    b_pcap, b_csv = sd.generate(_tiny_spec())
    assert a_pcap == b_pcap and a_csv == b_csv
    c_pcap, _ = sd.generate(_tiny_spec(seed=4))
    assert c_pcap != a_pcap


# ------------------------------------------------------ parse round trip

def test_round_trip_through_ingest():
    spec = _tiny_spec()
    pcap, truth = sd.generate(spec)
    capture = packet_ingest.parse_pcap(pcap)
    assert capture.n_skipped == 0 and capture.n_truncated == 0
    flows = packet_ingest.group_flows(capture.packets)
    assert len(flows) == spec.n_flows
    truth_rows = list(csv.DictReader(io.StringIO(truth)))
    labeled = packet_ingest.label_flows(flows, truth_rows)
    assert labeled.n_dropped == 0
    labels = [f.label for f in labeled.flows]
    assert labels.count("benign") == 10 and labels.count("attack") == 10
    lo, hi = spec.packets_per_flow
    assert all(lo <= len(f.packets) <= hi for f in labeled.flows)


@st.composite
def traffic_specs(draw):
    """Small specs: 1-20 flows of 1-6 packets over 1-3 classes of any
    schedule, motif, noise, byte rate and payload length."""
    profiles = []
    for c in range(draw(st.integers(1, 3))):
        schedule = draw(st.sampled_from(sd.SCHEDULES))
        motifs = draw(st.lists(st.binary(min_size=1, max_size=12), max_size=3,
                               min_size=2 if schedule == "split_halves" else 1))
        lo = draw(st.integers(0, 80))
        profiles.append(sd.ClassProfile(
            name=f"class{c}", motifs=motifs, schedule=schedule,
            noise_rate=draw(st.floats(0, 1)), high_byte_rate=draw(st.floats(0, 1)),
            payload_len=(lo, draw(st.integers(lo, lo + 80)))))
    weights = draw(st.lists(st.integers(1, 10), min_size=len(profiles),
                            max_size=len(profiles)))
    lo = draw(st.integers(1, 4))
    return sd.TrafficSpec(n_flows=draw(st.integers(1, 20)),
                          packets_per_flow=(lo, draw(st.integers(lo, 6))),
                          class_profiles=profiles,
                          class_mix=[w / sum(weights) for w in weights],
                          seed=draw(st.integers(0, 2**32 - 1)))


@given(spec=traffic_specs())
def test_any_spec_round_trips_through_ingest_with_every_flow_labelled(spec):
    pcap, truth = sd.generate(spec)
    capture = packet_ingest.parse_pcap(pcap)
    assert capture.n_skipped == 0 and capture.n_truncated == 0
    truth_rows = list(csv.DictReader(io.StringIO(truth)))
    labeled = packet_ingest.label_flows(packet_ingest.group_flows(capture.packets),
                                        truth_rows)
    assert labeled.n_dropped == 0 and len(labeled.flows) == spec.n_flows
    lo, hi = spec.packets_per_flow
    for flow in labeled.flows:
        # flow i's client address is 10.i (three bytes); row i is its truth
        client = next(p.src_addr for p in flow.packets if p.src_addr.startswith("10."))
        a, b, c = map(int, client.split(".")[1:])
        assert flow.label == truth_rows[a << 16 | b << 8 | c]["label"]
        assert lo <= len(flow.packets) <= hi
    names = [p.name for p in spec.class_profiles]
    assert collections.Counter(f.label for f in labeled.flows) == collections.Counter(
        names[c] for c in sd._allocate_classes(spec.class_mix, spec.n_flows))


def test_timestamps_non_decreasing():
    pcap, _ = sd.generate(_tiny_spec())
    pkts = packet_ingest.parse_pcap(pcap).packets
    ts = [p.timestamp for p in pkts]
    assert ts == sorted(ts)


def test_payload_lengths_within_profile_bounds():
    spec = _tiny_spec()
    for flow in labeled_flows_from_spec(spec):
        for p in flow.packets:
            assert 30 <= len(p.payload) <= 60


def test_motif_schedules_without_noise():
    spec = _tiny_spec(noise=0.0)
    for flow in labeled_flows_from_spec(spec):
        payloads = [p.payload for p in flow.packets]
        if flow.label == "benign":
            assert all(b"AAAA-motif" in pl for pl in payloads)
        else:
            first_half = (len(payloads) + 1) // 2
            assert all(b"BBBB-motif" in pl for pl in payloads[:first_half])
            assert all(b"CCCC-motif" in pl for pl in payloads[first_half:])


def test_uniform_single_uses_one_motif_per_flow():
    spec = _tiny_spec(noise=0.0, schedule="uniform_single")
    seen = set()
    for flow in labeled_flows_from_spec(spec):
        if flow.label != "attack":
            continue
        hits = [m for m in (b"BBBB-motif", b"CCCC-motif")
                if all(m in p.payload for p in flow.packets)]
        assert len(hits) == 1
        seen.add(hits[0])
    assert seen == {b"BBBB-motif", b"CCCC-motif"}  # both get picked eventually


def test_high_byte_rate_shifts_byte_distribution():
    base = _tiny_spec(noise=0.0)
    hot = _tiny_spec(noise=0.0)
    hot.class_profiles[0].high_byte_rate = 0.8
    def mean_benign_byte(spec):
        vals = []
        for f in labeled_flows_from_spec(spec):
            if f.label == "benign":
                vals.extend(b for p in f.packets for b in p.payload)
        return np.mean(vals)
    assert mean_benign_byte(hot) > mean_benign_byte(base) + 30


def test_truth_csv_shape_and_unique_tuples():
    spec = _tiny_spec()
    _, truth = sd.generate(spec)
    rows = list(csv.DictReader(io.StringIO(truth)))
    assert len(rows) == spec.n_flows
    assert set(rows[0]) == {"src_ip", "dst_ip", "src_port", "dst_port",
                            "protocol", "label"}
    tuples = {(r["src_ip"], r["dst_ip"], r["src_port"], r["dst_port"],
               r["protocol"]) for r in rows}
    assert len(tuples) == spec.n_flows
    assert {r["label"] for r in rows} == {"benign", "attack"}
    assert {r["protocol"] for r in rows} <= {"TCP", "UDP"}


# ------------------------------------------------------ bundled fixtures

def test_default_fixture_shape():
    spec = sd.default_fixture()
    assert spec.n_flows == 400
    assert spec.class_mix == [0.7, 0.3]
    names = [p.name for p in spec.class_profiles]
    assert names == ["benign", "attack"]
    assert spec.class_profiles[1].high_byte_rate > 0.5  # separable by intensity


def test_ambiguous_fixture_shares_motifs_across_classes():
    spec = sd.ambiguous_fixture()
    benign, attack = spec.class_profiles
    assert benign.motifs == attack.motifs
    assert benign.schedule == "uniform_single"
    assert attack.schedule == "split_halves"
    assert spec.class_mix == [0.5, 0.5]
    # flows must have >= 2 packets so the split-halves combination exists
    assert spec.packets_per_flow[0] >= 2
