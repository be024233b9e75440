import csv
import io
import ipaddress
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ride import packet_ingest as pi, synth_data


def global_header(endian="<", nsec=False, network=1):
    magic = 0xA1B23C4D if nsec else 0xA1B2C3D4
    return struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, network)


def record(frame, ts_sec=0, ts_frac=0, endian="<", incl=None):
    incl = len(frame) if incl is None else incl
    return struct.pack(endian + "IIII", ts_sec, ts_frac, incl, len(frame)) + frame


def eth(body, ethertype=0x0800):
    return b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", ethertype) + body


def ipv4(payload, proto=6, src="10.0.0.1", dst="10.0.0.2", total_length=None, frag=0):
    total_length = 20 + len(payload) if total_length is None else total_length
    hdr = struct.pack(
        ">BBHHHBBH4s4s", 0x45, 0, total_length, 1, frag, 64, proto, 0,
        socket.inet_aton(src), socket.inet_aton(dst),
    )
    return hdr + payload


def tcp(payload, sport=1234, dport=80, data_offset=5):
    hdr = struct.pack(">HHIIBBHHH", sport, dport, 0, 0, data_offset << 4, 0x18, 8192, 0, 0)
    hdr += b"\x00" * (data_offset * 4 - 20)
    return hdr + payload


def udp(payload, sport=5353, dport=53, udp_len=None):
    udp_len = 8 + len(payload) if udp_len is None else udp_len
    return struct.pack(">HHHH", sport, dport, udp_len, 0) + payload


def one_packet_capture(payload=b"hello", endian="<", nsec=False, ts_sec=3, ts_frac=500000):
    frame = eth(ipv4(tcp(payload)))
    return global_header(endian, nsec) + record(frame, ts_sec, ts_frac, endian)


def test_parse_single_tcp_packet_fields():
    cap = pi.parse_pcap(one_packet_capture())
    assert cap.n_skipped == 0 and cap.n_truncated == 0
    assert len(cap.packets) == 1
    p = cap.packets[0]
    assert (p.src_addr, p.dst_addr, p.src_port, p.dst_port) == ("10.0.0.1", "10.0.0.2", 1234, 80)
    assert p.protocol == "TCP"
    assert p.payload == b"hello"
    assert p.timestamp == pytest.approx(3.5)


def test_both_endiannesses_parse_identically():
    le = pi.parse_pcap(one_packet_capture(endian="<")).packets[0]
    be = pi.parse_pcap(one_packet_capture(endian=">")).packets[0]
    assert le == be


def test_nanosecond_magic_scales_fraction():
    cap = pi.parse_pcap(one_packet_capture(nsec=True, ts_sec=1, ts_frac=250_000_000))
    assert cap.packets[0].timestamp == pytest.approx(1.25)


def test_rejects_bad_inputs():
    with pytest.raises(pi.PcapFormatError):
        pi.parse_pcap(b"short")
    with pytest.raises(pi.PcapFormatError):
        pi.parse_pcap(b"\x0a\x0d\x0d\x0a" + b"\x00" * 20)  # pcapng
    with pytest.raises(pi.PcapFormatError):
        pi.parse_pcap(b"\xde\xad\xbe\xef" + b"\x00" * 20)
    with pytest.raises(pi.PcapFormatError):
        pi.parse_pcap(global_header(network=105))  # 802.11 link type


def test_non_ip_and_non_tcp_udp_are_skipped():
    frames = [
        eth(b"\x00" * 28, ethertype=0x0806),          # ARP
        eth(ipv4(b"\x00" * 8, proto=1)),              # ICMP
        eth(ipv4(tcp(b"ok"))),
    ]
    data = global_header() + b"".join(record(f) for f in frames)
    cap = pi.parse_pcap(data)
    assert cap.n_skipped == 2
    assert [p.payload for p in cap.packets] == [b"ok"]


def test_skips_are_counted_by_reason():
    frames = {
        "non_ip": eth(b"\x00" * 28, ethertype=0x0806),                 # ARP
        "non_tcp_udp": eth(ipv4(b"\x00" * 8, proto=1)),                # ICMP
        "fragment": eth(ipv4(b"\xff" * 30, frag=100)),
        "short_header": eth(ipv4(b"\x00" * 12)),                       # 12 of 20 TCP bytes
        "zero_total_length": eth(ipv4(tcp(b"tso"), total_length=0)),
    }
    assert set(frames) == set(pi.SKIP_REASONS)
    data = global_header() + b"".join(record(f) for f in frames.values())
    cap = pi.parse_pcap(data + record(eth(ipv4(tcp(b"ok")))))
    assert cap.n_skipped_by_reason == dict.fromkeys(pi.SKIP_REASONS, 1)
    assert cap.n_skipped == len(pi.SKIP_REASONS)
    assert [p.payload for p in cap.packets] == [b"ok"]


def test_ip_fragment_without_l4_header_is_skipped():
    # fragment offset 100 (in 8-byte units) -> no TCP header in this datagram
    frag_pkt = eth(ipv4(b"\xff" * 30, frag=100))
    first_frag = eth(ipv4(tcp(b"first"), frag=0x2000))  # MF set, offset 0
    data = global_header() + record(frag_pkt) + record(first_frag)
    cap = pi.parse_pcap(data)
    assert cap.n_skipped == 1
    assert cap.packets[0].payload == b"first"


def test_ethernet_padding_is_dropped_via_total_length():
    # 4 padding bytes after the IP datagram must not leak into the payload
    datagram = ipv4(tcp(b"pay"))
    frame = eth(datagram + b"\x00\x00\x00\x00")
    cap = pi.parse_pcap(global_header() + record(frame))
    assert cap.packets[0].payload == b"pay"


def test_snap_shortened_datagram_is_bounded_by_capture():
    # total_length claims 200 bytes but only 3 payload bytes were captured
    datagram = ipv4(tcp(b"abc"), total_length=200)
    cap = pi.parse_pcap(global_header() + record(eth(datagram)))
    assert cap.packets[0].payload == b"abc"


def test_tcp_options_are_not_payload():
    cap = pi.parse_pcap(global_header() + record(eth(ipv4(tcp(b"data", data_offset=8)))))
    assert cap.packets[0].payload == b"data"


def test_udp_length_field_bounds_payload():
    # udp_len shorter than captured bytes trims; longer is capped by capture
    short = eth(ipv4(udp(b"abcdef", udp_len=8 + 3), proto=17))
    long = eth(ipv4(udp(b"abc", udp_len=8 + 50), proto=17))
    cap = pi.parse_pcap(global_header() + record(short) + record(long))
    assert cap.packets[0].payload == b"abc"
    assert cap.packets[0].protocol == "UDP"
    assert cap.packets[1].payload == b"abc"


def test_truncated_record_stops_but_keeps_earlier_packets():
    good = record(eth(ipv4(tcp(b"one"))))
    frame2 = eth(ipv4(tcp(b"two")))
    truncated = struct.pack("<IIII", 0, 0, len(frame2) + 10, len(frame2)) + frame2
    cap = pi.parse_pcap(global_header() + good + truncated)
    assert cap.n_truncated == 1
    assert [p.payload for p in cap.packets] == [b"one"]


def test_ipv6_tcp_parse():
    l4 = tcp(b"six")
    hdr = struct.pack(">IHBB", 6 << 28, len(l4), 6, 64)
    hdr += socket.inet_pton(socket.AF_INET6, "2001:db8::1")
    hdr += socket.inet_pton(socket.AF_INET6, "2001:db8::2")
    cap = pi.parse_pcap(global_header() + record(eth(hdr + l4, ethertype=0x86DD)))
    p = cap.packets[0]
    assert p.src_addr == "2001:db8::1" and p.dst_addr == "2001:db8::2"
    assert p.payload == b"six"


def ipv6_datagram(next_header, body, payload_length=None):
    payload_length = len(body) if payload_length is None else payload_length
    hdr = struct.pack(">IHBB", 6 << 28, payload_length, next_header, 64)
    hdr += socket.inet_pton(socket.AF_INET6, "2001:db8::1")
    hdr += socket.inet_pton(socket.AF_INET6, "2001:db8::2")
    return hdr + body


def ipv6(next_header, body, payload_length=None):
    return eth(ipv6_datagram(next_header, body, payload_length), ethertype=0x86DD)


def options_header(next_header, units=0):
    """A hop-by-hop, routing or destination-options header: 8 + 8 * units
    bytes, its length field counting the 8-byte units past the first."""
    return bytes([next_header, units]) + b"\x01" * (6 + 8 * units)


def fragment_header(next_header, offset=0, more=False):
    return struct.pack(">BBHI", next_header, 0, offset << 3 | more, 7)


@pytest.mark.parametrize("chain", [
    [(0, 0)],                        # hop-by-hop options
    [(43, 2)],                       # routing, 24 bytes
    [(60, 1)],                       # destination options
    [(44, None)],                    # fragment header of a first fragment
    [(0, 0), (43, 1), (44, None), (60, 3)],
])
def test_ipv6_extension_headers_are_walked_to_the_l4_header(chain):
    kinds = [kind for kind, _ in chain]
    body = b""
    for (kind, units), after in zip(chain, kinds[1:] + [6]):
        body += fragment_header(after, more=True) if kind == 44 else options_header(after, units)
    cap = pi.parse_pcap(global_header() + record(ipv6(kinds[0], body + tcp(b"ext", sport=7))))
    assert cap.n_skipped == 0
    p = cap.packets[0]
    assert (p.src_addr, p.src_port, p.protocol, p.payload) == ("2001:db8::1", 7, "TCP", b"ext")


def test_ipv6_non_first_fragment_and_cut_chains_are_skipped_by_reason():
    frames = {
        "fragment": ipv6(44, fragment_header(6, offset=10) + b"\xff" * 30),
        # the options header says 16 bytes; the payload holds 12
        "short_header": ipv6(0, options_header(6, units=1)[:12]),
    }
    cut_at_header = ipv6(60, options_header(6)[:5])  # fewer than 8 bytes left
    cut_by_length = ipv6(43, options_header(6) + tcp(b"x"), payload_length=6)
    no_l4 = ipv6(0, options_header(58) + b"\x80\x00" * 4)  # ICMPv6 after hop-by-hop
    data = b"".join(record(f) for f in [*frames.values(), cut_at_header, cut_by_length, no_l4])
    cap = pi.parse_pcap(global_header() + data)
    assert cap.packets == []
    assert cap.n_skipped_by_reason == dict(dict.fromkeys(pi.SKIP_REASONS, 0), fragment=1,
                                           short_header=3, non_tcp_udp=1)


def _tag_every_frame(pcap: bytes, tag_types: list[int]) -> bytes:
    """The capture with one 4-byte VLAN tag per entry of tag_types (its
    type field, outermost first) after each frame's MAC addresses."""
    tags = b"".join(struct.pack(">HH", t, 100 + i) for i, t in enumerate(tag_types))
    out, offset = [pcap[:24]], 24
    while offset < len(pcap):
        ts_sec, ts_frac, incl, orig = struct.unpack("<IIII", pcap[offset:offset + 16])
        frame = pcap[offset + 16:offset + 16 + incl]
        out.append(struct.pack("<IIII", ts_sec, ts_frac, incl + len(tags), orig + len(tags))
                   + frame[:12] + tags + frame[12:])
        offset += 16 + incl
    return b"".join(out)


def test_vlan_and_qinq_tagged_frames_parse_like_untagged():
    pcap, truth_text = synth_data.generate(synth_data.default_fixture(seed=7))
    truth = list(csv.DictReader(io.StringIO(truth_text)))

    def ingest(capture):
        parsed = pi.parse_pcap(capture)
        flows = pi.label_flows(pi.group_flows(parsed.packets), truth).flows
        return parsed.n_skipped, [(f.flow_id, f.label, [p.payload for p in f.packets])
                                  for f in flows]

    skipped, untagged = ingest(pcap)
    assert skipped == 0 and len(untagged) == 400
    for tag_types in ([0x8100], [0x88A8, 0x8100]):
        assert ingest(_tag_every_frame(pcap, tag_types)) == (0, untagged)
    # a tag cut short by the frame's end is skipped, not misread
    cap = pi.parse_pcap(global_header() + record(eth(b"\x00\x01", ethertype=0x8100)))
    assert cap.packets == [] and cap.n_skipped == 1



def sll(body, protocol=0x0800):
    """A Linux cooked-capture (SLL) frame: packet type, ARPHRD type, address
    length, 8 address bytes, then the protocol type."""
    return struct.pack(">HHH8sH", 0, 1, 6, b"\xaa" * 6, protocol) + body


LINK_FRAMINGS = {  # link type -> frame of (datagram, ethertype)
    1: eth,
    101: lambda datagram, ethertype: datagram,
    113: sll,
}


@pytest.mark.parametrize("network", sorted(LINK_FRAMINGS))
@pytest.mark.parametrize("version", [4, 6])
@pytest.mark.parametrize("protocol", ["TCP", "UDP"])
def test_tcp_and_udp_over_ipv4_and_ipv6_parse_on_every_link_type(network, version, protocol):
    l4 = tcp(b"link", sport=7, dport=80) if protocol == "TCP" else udp(b"link", sport=7, dport=80)
    proto = 6 if protocol == "TCP" else 17
    if version == 4:
        datagram, ethertype, src = ipv4(l4, proto=proto), 0x0800, "10.0.0.1"
    else:
        datagram, ethertype, src = ipv6_datagram(proto, l4), 0x86DD, "2001:db8::1"
    frame = LINK_FRAMINGS[network](datagram, ethertype)
    cap = pi.parse_pcap(global_header(network=network) + record(frame))
    assert cap.n_skipped == 0
    p = cap.packets[0]
    assert (p.src_addr, p.src_port, p.dst_port, p.protocol, p.payload) == (
        src, 7, 80, protocol, b"link")


def test_sll_and_raw_ip_frames_without_a_packet_are_skipped_by_reason():
    datagram = ipv4(tcp(b"ok"))
    cases = {
        113: [sll(datagram)[:15], sll(b"\x00" * 28, protocol=0x0806), sll(datagram)],
        101: [b"", b"\x20" + datagram[1:], datagram],  # empty; IP version 2
    }
    for network, frames in cases.items():
        cap = pi.parse_pcap(global_header(network=network) + b"".join(map(record, frames)))
        assert cap.n_skipped_by_reason == dict(dict.fromkeys(pi.SKIP_REASONS, 0),
                                               short_header=1, non_ip=1)
        assert [p.payload for p in cap.packets] == [b"ok"]

def test_payload_matrix_pads_and_truncates():
    packets = [pi.RawPacket(0.0, "a", "b", 1, 2, "TCP", payload)
               for payload in (b"\x01\x02\x03", b"", b"\x04\x05\x06\x07\x08\x09")]
    m = pi.payload_matrix(packets, 5)
    assert m.dtype == np.uint8 and m.shape == (3, 5)
    np.testing.assert_array_equal(m, [[1, 2, 3, 0, 0], [0, 0, 0, 0, 0], [4, 5, 6, 7, 8]])
    # each row is the packet's payload vector at that width
    for width in (1, 2, 6, 9):
        np.testing.assert_array_equal(
            pi.payload_matrix(packets, width),
            [pi.extract_payload_vector(p, width).values for p in packets])
    assert pi.payload_matrix(packets, 0).shape == (3, 0)
    assert pi.payload_matrix([], 4).shape == (0, 4)


def test_extract_payload_vector_pads_and_truncates():
    p = pi.RawPacket(0.0, "a", "b", 1, 2, "TCP", b"\x01\x02\x03")
    vec = pi.extract_payload_vector(p, n_p=5)
    np.testing.assert_array_equal(vec.values, [1, 2, 3, 0, 0])
    vec2 = pi.extract_payload_vector(p, n_p=2)
    np.testing.assert_array_equal(vec2.values, [1, 2])
    with pytest.raises(ValueError):
        pi.extract_payload_vector(p, n_p=0)


def test_normalize_protocol():
    assert pi.normalize_protocol("tcp") == "TCP"
    assert pi.normalize_protocol(" udp ") == "UDP"
    assert pi.normalize_protocol(6) == "TCP"
    assert pi.normalize_protocol("17") == "UDP"
    assert pi.normalize_protocol(47) == "OTHER(47)"
    with pytest.raises(ValueError):
        pi.normalize_protocol(3.5)


def test_canonical_flow_key_is_direction_invariant():
    k1 = pi.canonical_flow_key("10.0.0.1", "10.0.0.2", 1234, 80, "TCP")
    k2 = pi.canonical_flow_key("10.0.0.2", "10.0.0.1", 80, 1234, 6)
    assert k1 == k2
    k3 = pi.canonical_flow_key("10.0.0.1", "10.0.0.2", 1234, 80, "UDP")
    assert k3 != k1


def test_group_flows_bidirectional_first_seen_order():
    a1 = pi.RawPacket(0.0, "10.0.0.1", "10.0.0.2", 1111, 80, "TCP", b"a1")
    b1 = pi.RawPacket(0.1, "10.0.0.3", "10.0.0.4", 2222, 80, "TCP", b"b1")
    a2 = pi.RawPacket(0.2, "10.0.0.2", "10.0.0.1", 80, 1111, "TCP", b"a2")  # reply
    flows = pi.group_flows([a1, b1, a2])
    assert len(flows) == 2
    assert [p.payload for p in flows[0].packets] == [b"a1", b"a2"]
    assert [p.payload for p in flows[1].packets] == [b"b1"]


def truth_row(src, dst, sport, dport, proto, label):
    return {"src_ip": src, "dst_ip": dst, "src_port": sport,
            "dst_port": dport, "protocol": proto, "label": label}


def test_label_flows_attaches_and_drops():
    a = pi.RawPacket(0.0, "10.0.0.1", "10.0.0.2", 1111, 80, "TCP", b"x")
    b = pi.RawPacket(0.1, "10.0.0.9", "10.0.0.8", 2222, 80, "TCP", b"y")
    flows = pi.group_flows([a, b])
    # reversed direction in the truth row still matches
    res = pi.label_flows(flows, [truth_row("10.0.0.2", "10.0.0.1", 80, 1111, "tcp", "attack")])
    assert res.n_dropped == 1
    assert len(res.flows) == 1 and res.flows[0].label == "attack"


def test_label_flows_conflict_raises():
    rows = [
        truth_row("10.0.0.1", "10.0.0.2", 1, 2, "TCP", "benign"),
        truth_row("10.0.0.2", "10.0.0.1", 2, 1, "TCP", "attack"),
    ]
    with pytest.raises(ValueError):
        pi.label_flows([], rows)


def test_flow_store_round_trip(tmp_path):
    cap = pi.parse_pcap(one_packet_capture(payload=b"\x00\x01\xffhello"))
    flows = pi.group_flows(cap.packets)
    flows[0].label = "benign"
    path = tmp_path / "flows.npz"
    pi.save_flows(flows, str(path))
    loaded = pi.load_flows(str(path))
    assert loaded == flows


_ADDRESSES = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda n: str(ipaddress.IPv4Address(n))),
    st.integers(0, 2**128 - 1).map(lambda n: str(ipaddress.IPv6Address(n))))
_PORTS = st.sampled_from([0, 65535]) | st.integers(0, 65535)
# empty, a full 1,500 bytes ending in zeros, or short
_PAYLOADS = st.sampled_from([b"", bytes(range(256)) * 5 + bytes(220)]) | st.binary(max_size=64)
# any text, and text ending in a NUL, which a numpy str array would drop
_LABELS = st.text(min_size=1) | st.text().map(lambda text: text + "\0")


@st.composite
def stored_flows(draw):
    """Flows as ingest groups them: 1-4 packets between two endpoints, under
    a non-empty str label."""
    flows = []
    for _ in range(draw(st.integers(0, 4))):
        src, dst, sport, dport = draw(_ADDRESSES), draw(_ADDRESSES), draw(_PORTS), draw(_PORTS)
        protocol = draw(st.sampled_from(["TCP", "UDP"]))
        packets = [pi.RawPacket(draw(st.floats(0, 2**32)), src, dst, sport, dport, protocol,
                                draw(_PAYLOADS))
                   for _ in range(draw(st.integers(1, 4)))]
        flows.append(pi.FlowRecord(pi.canonical_flow_key(src, dst, sport, dport, protocol),
                                   packets, draw(_LABELS)))
    return flows


@given(flows=stored_flows())
def test_the_flow_store_gives_back_the_flows_it_was_given(tmp_path_factory, flows):
    path = str(tmp_path_factory.mktemp("store") / "flows.npz")
    pi.save_flows(flows, path)
    assert pi.load_flows(path) == flows


class _FullDisk:
    """A file that takes `room` bytes, then raises as a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        if self.fh.tell() + len(data) > self.room:
            raise OSError("disk full")
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def test_a_failed_flow_store_write_leaves_the_old_store(tmp_path, monkeypatch):
    pcap, _ = synth_data.generate(synth_data.default_fixture(seed=3))
    flows = pi.group_flows(pi.parse_pcap(pcap).packets)[:6]
    path = tmp_path / "flows.npz"
    pi.save_flows(flows, str(path))
    room = path.stat().st_size // 2  # the disk fills halfway through the new store
    pi.save_flows(flows[:2], str(path))
    old = path.read_bytes()
    savez = np.savez
    monkeypatch.setattr(np, "savez", lambda fh, **entries: savez(_FullDisk(fh, room), **entries))
    with pytest.raises(OSError, match="disk full"):
        pi.save_flows(flows, str(path))
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flows.npz"]
    assert pi.load_flows(str(path)) == flows[:2]


def test_load_truth_csv(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text(
        "src_ip,dst_ip,src_port,dst_port,protocol,label\n"
        "10.0.0.1,10.0.0.2,1234,80,TCP,attack\n"
    )
    rows = pi.load_truth_csv(str(path))
    assert rows == [truth_row("10.0.0.1", "10.0.0.2", "1234", "80", "TCP", "attack")]


def test_a_truth_row_of_another_ip_protocol_loads_and_matches_no_flow(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text(
        "src_ip,dst_ip,src_port,dst_port,protocol,label\n"
        "10.0.0.1,10.0.0.2,1234,80,tcp,attack\n"
        "10.0.0.1,10.0.0.2,0,0,1,benign\n"
        "10.0.0.1,10.0.0.2,1234,80,17,benign\n"
    )
    rows = pi.load_truth_csv(str(path))
    assert [row["protocol"] for row in rows] == ["tcp", "1", "17"]
    capture = pi.parse_pcap(global_header() + record(eth(ipv4(tcp(b"GET")))))
    result = pi.label_flows(pi.group_flows(capture.packets), rows)
    assert [(f.flow_id, f.label) for f in result.flows] == [
        ("10.0.0.1:1234|10.0.0.2:80|TCP", "attack")]


# ------------------------------------------------------ property tests

@given(data=st.binary(max_size=200))
def test_arbitrary_bytes_parse_or_raise_pcap_format_error(data):
    try:
        pi.parse_pcap(data)
    except pi.PcapFormatError:
        pass


ethertypes = st.sampled_from([0x0800, 0x86DD, 0x8100, 0x88A8, 0x0806])
frames = st.one_of(
    st.binary(max_size=80),
    st.builds(lambda body, ethertype: eth(body, ethertype), st.binary(max_size=80), ethertypes),
    st.builds(lambda l4, proto, total, frag: eth(ipv4(l4, proto=proto, total_length=total,
                                                      frag=frag)),
              st.binary(max_size=60), st.sampled_from([6, 17, 1]),
              st.one_of(st.none(), st.integers(0, 0xFFFF)), st.integers(0, 0xFFFF)),
)


@given(frames=st.lists(frames, max_size=8), tail=st.binary(max_size=15),
       endian=st.sampled_from(["<", ">"]), network=st.sampled_from(sorted(LINK_FRAMINGS)))
def test_random_records_parse_or_raise_pcap_format_error(frames, tail, endian, network):
    # the tail is shorter than a record header, so it always truncates
    data = global_header(endian, network=network) + b"".join(
        record(f, endian=endian) for f in frames)
    try:
        cap = pi.parse_pcap(data + tail)
    except pi.PcapFormatError:
        return
    # every whole record yields a packet or one counted skip
    assert len(cap.packets) + cap.n_skipped == len(frames)
    assert cap.n_skipped == sum(cap.n_skipped_by_reason.values())
    assert set(cap.n_skipped_by_reason) == set(pi.SKIP_REASONS)
    assert cap.n_truncated == (1 if tail else 0)


@given(raw=st.binary(min_size=4, max_size=4))
def test_ipv4_address_text_is_that_of_ipaddress(raw):
    frame = eth(ipv4(tcp(b"a")))
    frame = frame[:26] + raw + raw[::-1] + frame[34:]  # source, destination
    p = pi.parse_pcap(global_header() + record(frame)).packets[0]
    assert p.src_addr == str(ipaddress.ip_address(raw))
    assert p.dst_addr == str(ipaddress.ip_address(raw[::-1]))


addresses = st.one_of(st.ip_addresses(v=4), st.ip_addresses(v=6)).map(str)
ports = st.integers(0, 0xFFFF)


@given(src=addresses, dst=addresses, sport=ports, dport=ports,
       protocol=st.one_of(st.sampled_from(["TCP", "udp", "ICMP"]), st.integers(0, 255)))
def test_canonical_flow_key_is_the_same_in_both_directions(src, dst, sport, dport, protocol):
    assert (pi.canonical_flow_key(src, dst, sport, dport, protocol)
            == pi.canonical_flow_key(dst, src, dport, sport, protocol))
