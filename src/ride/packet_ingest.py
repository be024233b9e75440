"""Classic PCAP parsing, payload vectorization, flow grouping and labeling.

Only classic PCAP is accepted (both endiannesses, microsecond and
nanosecond timestamp variants; Ethernet with 802.1Q and QinQ tags skipped,
raw IP and Linux cooked (SLL) link types; IPv6 hop-by-hop, routing,
fragment and destination-options headers walked). PCAPNG is rejected.
No TCP reassembly or IP defragmentation is attempted.
"""
from __future__ import annotations

import base64
import csv
import ipaddress
import json
import logging
import socket
import struct
from dataclasses import dataclass, field

import numpy as np

from . import nn_core

logger = logging.getLogger(__name__)

DEFAULT_N_P = 1500

PCAP_MAGIC_USEC = 0xA1B2C3D4
PCAP_MAGIC_NSEC = 0xA1B23C4D
PCAPNG_MAGIC = 0x0A0D0D0A
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101  # the frame is the IP datagram
LINKTYPE_LINUX_SLL = 113  # 16-byte cooked header, protocol type at bytes 14-15

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
VLAN_TAG_TYPES = (0x8100, 0x88A8)  # 802.1Q tag, 802.1ad (QinQ) service tag

PROTO_TCP = 6
PROTO_UDP = 17

# IPv6 extension headers walked to the L4 header: hop-by-hop options,
# routing, fragment and destination options
IPV6_FRAGMENT = 44
IPV6_EXTENSION_HEADERS = (0, 43, IPV6_FRAGMENT, 60)

TRUTH_COLUMNS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol", "label")

# Why a frame is skipped:
#   non_ip             ethertype (or SLL protocol type) neither IPv4 nor
#                      IPv6, or an IP version nibble that disagrees with it
#                      or, on a raw-IP link, is neither 4 nor 6
#   non_tcp_udp        IP payload of another protocol (ICMP, ...)
#   fragment           IPv4 or IPv6 fragment other than the first (no L4
#                      header)
#   short_header       an Ethernet, VLAN, SLL, IP, IPv6 extension, TCP or UDP
#                      header cut short, or an IP/TCP header length below
#                      its minimum
#   zero_total_length  IPv4 total_length 0 (segmentation offload captures)
SKIP_REASONS = ("non_ip", "non_tcp_udp", "fragment", "short_header", "zero_total_length")


class PcapFormatError(ValueError):
    """Fatal problem with the capture's global header or framing."""


@dataclass
class RawPacket:
    timestamp: float
    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    protocol: str  # "TCP", "UDP" or "OTHER(<code>)"
    payload: bytes


@dataclass
class PayloadVector:
    values: np.ndarray  # uint8, length n_p


@dataclass
class FlowRecord:
    flow_id: str
    packets: list[RawPacket]
    label: object = None  # str or int once labeled


@dataclass
class ParsedCapture:
    packets: list[RawPacket] = field(default_factory=list)
    n_skipped_by_reason: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(SKIP_REASONS, 0))
    n_truncated: int = 0

    @property
    def n_skipped(self) -> int:
        return sum(self.n_skipped_by_reason.values())


@dataclass
class LabelResult:
    flows: list[FlowRecord]
    n_dropped: int


def normalize_protocol(value) -> str:
    """Map protocol names or IP protocol numbers onto TCP/UDP/OTHER(n)."""
    if isinstance(value, str):
        v = value.strip()
        if v.upper() in ("TCP", "UDP"):
            return v.upper()
        if v.isdigit():
            value = int(v)
        else:
            return f"OTHER({v})"
    if isinstance(value, (int, np.integer)):
        if value == PROTO_TCP:
            return "TCP"
        if value == PROTO_UDP:
            return "UDP"
        return f"OTHER({int(value)})"
    raise ValueError(f"cannot interpret protocol value {value!r}")


def parse_pcap(capture_bytes: bytes) -> ParsedCapture:
    """Parse a classic PCAP byte string into TCP/UDP RawPackets.

    Frames that yield no TCP/UDP packet are counted per reason (see
    SKIP_REASONS) in n_skipped_by_reason; n_skipped is their sum. A
    truncated record stops parsing; whatever was parsed so far is returned
    with n_truncated incremented.
    """
    if len(capture_bytes) < 24:
        raise PcapFormatError("capture shorter than the 24-byte global header")
    magic_be = struct.unpack(">I", capture_bytes[:4])[0]
    magic_le = struct.unpack("<I", capture_bytes[:4])[0]
    if magic_be == PCAPNG_MAGIC:
        raise PcapFormatError("PCAPNG input detected; only classic PCAP is supported")
    if magic_le in (PCAP_MAGIC_USEC, PCAP_MAGIC_NSEC):
        endian = "<"
        magic = magic_le
    elif magic_be in (PCAP_MAGIC_USEC, PCAP_MAGIC_NSEC):
        endian = ">"
        magic = magic_be
    else:
        raise PcapFormatError(f"unrecognized PCAP magic 0x{magic_be:08X}")
    ts_scale = 1e-9 if magic == PCAP_MAGIC_NSEC else 1e-6

    _vmaj, _vmin, _zone, _sig, _snaplen, network = struct.unpack(
        endian + "HHiIII", capture_bytes[4:24]
    )
    parse_frame = _FRAME_PARSERS.get(network)
    if parse_frame is None:
        raise PcapFormatError(f"unsupported link type {network}; handled: Ethernet "
                              f"({LINKTYPE_ETHERNET}), raw IP ({LINKTYPE_RAW}) and "
                              f"Linux SLL ({LINKTYPE_LINUX_SLL})")

    result = ParsedCapture()
    offset = 24
    total = len(capture_bytes)
    while offset < total:
        if offset + 16 > total:
            logger.warning("truncated record header at byte %d; stopping", offset)
            result.n_truncated += 1
            break
        ts_sec, ts_frac, incl_len, _orig_len = struct.unpack(
            endian + "IIII", capture_bytes[offset:offset + 16]
        )
        offset += 16
        if offset + incl_len > total:
            logger.warning("truncated record body at byte %d; stopping", offset)
            result.n_truncated += 1
            break
        frame = capture_bytes[offset:offset + incl_len]
        offset += incl_len
        packet = parse_frame(ts_sec + ts_frac * ts_scale, frame)
        if isinstance(packet, str):
            result.n_skipped_by_reason[packet] += 1
        else:
            result.packets.append(packet)
    return result


# The _parse_* helpers return the packet, or the SKIP_REASONS entry that
# explains why the frame holds none.

def _parse_ethernet(timestamp: float, frame: bytes) -> RawPacket | str:
    if len(frame) < 14:
        return "short_header"
    ethertype = struct.unpack(">H", frame[12:14])[0]
    start = 14
    while ethertype in VLAN_TAG_TYPES:  # each 4-byte tag ends in the inner type
        if len(frame) < start + 4:
            return "short_header"
        ethertype = struct.unpack(">H", frame[start + 2:start + 4])[0]
        start += 4
    parse_ip = _IP_BY_ETHERTYPE.get(ethertype)
    return "non_ip" if parse_ip is None else parse_ip(timestamp, frame[start:])


def _parse_sll(timestamp: float, frame: bytes) -> RawPacket | str:
    if len(frame) < 16:
        return "short_header"
    parse_ip = _IP_BY_ETHERTYPE.get(struct.unpack(">H", frame[14:16])[0])
    return "non_ip" if parse_ip is None else parse_ip(timestamp, frame[16:])


def _parse_raw_ip(timestamp: float, frame: bytes) -> RawPacket | str:
    if not frame:
        return "short_header"
    parse_ip = _IP_BY_VERSION.get(frame[0] >> 4)
    return "non_ip" if parse_ip is None else parse_ip(timestamp, frame)


def _parse_ipv4(timestamp: float, data: bytes) -> RawPacket | str:
    if len(data) < 20:
        return "short_header"
    if data[0] >> 4 != 4:
        return "non_ip"
    ihl = (data[0] & 0x0F) * 4
    if ihl < 20 or len(data) < ihl:
        return "short_header"
    total_length = struct.unpack(">H", data[2:4])[0]
    frag = struct.unpack(">H", data[6:8])[0]
    if frag & 0x1FFF:  # non-first fragment, no L4 header present
        return "fragment"
    if total_length == 0:
        return "zero_total_length"
    proto = data[9]
    src = socket.inet_ntoa(data[12:16])
    dst = socket.inet_ntoa(data[16:20])
    # Ethernet padding may extend past the IP datagram; the datagram may
    # also have been cut short by the snap length.
    l4 = data[ihl:max(ihl, min(total_length, len(data)))]
    return _parse_l4(timestamp, src, dst, proto, l4)


def _parse_ipv6(timestamp: float, data: bytes) -> RawPacket | str:
    if len(data) < 40:
        return "short_header"
    if data[0] >> 4 != 6:
        return "non_ip"
    payload_length = struct.unpack(">H", data[4:6])[0]
    next_header = data[6]
    src = str(ipaddress.ip_address(data[8:24]))
    dst = str(ipaddress.ip_address(data[24:40]))
    payload = data[40:40 + min(payload_length, max(0, len(data) - 40))]
    start = 0
    while next_header in IPV6_EXTENSION_HEADERS:
        if len(payload) < start + 8:
            return "short_header"
        if next_header == IPV6_FRAGMENT:
            if struct.unpack(">H", payload[start + 2:start + 4])[0] >> 3:
                return "fragment"  # not the first: no L4 header present
            length = 8
        else:  # hop-by-hop, routing, destination options: 8-byte units past the first
            length = (payload[start + 1] + 1) * 8
        next_header = payload[start]
        start += length
    if len(payload) < start:
        return "short_header"
    return _parse_l4(timestamp, src, dst, next_header, payload[start:])


def _parse_l4(timestamp: float, src: str, dst: str, proto: int, l4: bytes) -> RawPacket | str:
    if proto == PROTO_TCP:
        if len(l4) < 20:
            return "short_header"
        sport, dport = struct.unpack(">HH", l4[:4])
        data_offset = (l4[12] >> 4) * 4
        if data_offset < 20 or len(l4) < data_offset:
            return "short_header"
        return RawPacket(timestamp, src, dst, sport, dport, "TCP", l4[data_offset:])
    if proto == PROTO_UDP:
        if len(l4) < 8:
            return "short_header"
        sport, dport, udp_len = struct.unpack(">HHH", l4[:6])
        end = min(max(udp_len, 8), len(l4))
        return RawPacket(timestamp, src, dst, sport, dport, "UDP", l4[8:end])
    return "non_tcp_udp"


_IP_BY_ETHERTYPE = {ETHERTYPE_IPV4: _parse_ipv4, ETHERTYPE_IPV6: _parse_ipv6}
_IP_BY_VERSION = {4: _parse_ipv4, 6: _parse_ipv6}
# one frame parser per link type, chosen once per capture
_FRAME_PARSERS = {LINKTYPE_ETHERNET: _parse_ethernet, LINKTYPE_RAW: _parse_raw_ip,
                  LINKTYPE_LINUX_SLL: _parse_sll}


def payload_matrix(packets: list[RawPacket], width: int) -> np.ndarray:
    """The first `width` payload bytes of each packet, zero padded, as the
    rows of one read-only (len(packets), width) uint8 matrix over a single
    bytes buffer."""
    buf = b"".join(pkt.payload[:width].ljust(width, b"\0") for pkt in packets)
    return np.frombuffer(buf, dtype=np.uint8).reshape(len(packets), width)


def extract_payload_vector(packet: RawPacket, n_p: int = DEFAULT_N_P) -> PayloadVector:
    """First min(len, n_p) payload bytes as 0-255 values, zero padded."""
    if n_p < 1:
        raise ValueError("n_p must be >= 1")
    raw = packet.payload[:n_p]
    values = np.zeros(n_p, dtype=np.uint8)
    if raw:
        values[:len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    return PayloadVector(values=values)


def canonical_flow_key(src: str, dst: str, sport: int, dport: int, protocol) -> str:
    """Direction-invariant 5-tuple key: endpoints ordered lexicographically."""
    proto = normalize_protocol(protocol)
    ep_a, ep_b = sorted([(src, int(sport)), (dst, int(dport))])
    return f"{ep_a[0]}:{ep_a[1]}|{ep_b[0]}:{ep_b[1]}|{proto}"


def group_flows(packets: list[RawPacket]) -> list[FlowRecord]:
    """Partition packets by canonical 5-tuple, first-seen flow order."""
    flows: dict[str, FlowRecord] = {}
    for pkt in packets:
        key = canonical_flow_key(pkt.src_addr, pkt.dst_addr, pkt.src_port, pkt.dst_port, pkt.protocol)
        record = flows.get(key)
        if record is None:
            flows[key] = record = FlowRecord(flow_id=key, packets=[])
        record.packets.append(pkt)
    for record in flows.values():
        record.packets.sort(key=lambda p: p.timestamp)  # stable: capture order breaks ties
    return list(flows.values())


def _int_within(text: str, top: int) -> bool:
    """Whether text is decimal digits, space around them aside, for an
    integer in 0..top (normalize_protocol reads a number only so)."""
    digits = text.strip()
    return digits.isascii() and digits.isdigit() and int(digits) <= top


def load_truth_csv(path: str) -> list[dict]:
    """Read a ground-truth CSV; extra columns beyond the required six are
    ignored. A file that does not decode, lacks a required column, or has
    a row with a required value empty or missing, a port that is not an
    integer in 0-65535 or a protocol that is neither TCP nor UDP (in any
    case) nor an integer in 0-255 raises ValueError("bad truth file
    <path>: ..."), naming the line and the value. A row of another IP
    protocol (ICMP's 1, say) loads, and matches no flow."""
    with open(path, newline="") as fh, nn_core.file_errors(path, "truth"):
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError("missing CSV header row")
        missing = [c for c in TRUTH_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"missing required columns {missing}")
        rows = []
        for row in reader:
            empty = [c for c in TRUTH_COLUMNS if not row[c]]
            if empty:
                raise ValueError(f"line {reader.line_num}: no value for {', '.join(empty)}")
            for port in ("src_port", "dst_port"):
                if not _int_within(row[port], 65535):
                    raise ValueError(f"line {reader.line_num}: {port} {row[port]!r} "
                                     "is not an integer in 0-65535")
            protocol = row["protocol"]
            if protocol.strip().upper() not in ("TCP", "UDP") and not _int_within(protocol, 255):
                raise ValueError(f"line {reader.line_num}: protocol {protocol!r} is not "
                                 "TCP, UDP or an integer in 0-255")
            rows.append(dict(row))
        return rows


def label_flows(flows: list[FlowRecord], truth: list[dict]) -> LabelResult:
    """Attach labels by canonical flow key; unmatched flows are dropped.

    Conflicting duplicate truth rows for the same key raise an error.
    """
    table: dict[str, object] = {}
    for row in truth:
        key = canonical_flow_key(
            row["src_ip"], row["dst_ip"], row["src_port"], row["dst_port"], row["protocol"]
        )
        label = row["label"]
        if key in table and table[key] != label:
            raise ValueError(f"conflicting truth labels for flow key {key}: "
                             f"{table[key]!r} vs {label!r}")
        table[key] = label

    labeled, dropped = [], 0
    for flow in flows:
        label = table.get(flow.flow_id)
        if label is None:
            dropped += 1
            continue
        labeled.append(FlowRecord(flow_id=flow.flow_id, packets=flow.packets, label=label))
    if dropped:
        logger.info("dropped %d flows absent from the truth table", dropped)
    return LabelResult(flows=labeled, n_dropped=dropped)


def _packet_to_json(pkt: RawPacket) -> dict:
    return {
        "timestamp": pkt.timestamp,
        "src_addr": pkt.src_addr,
        "dst_addr": pkt.dst_addr,
        "src_port": pkt.src_port,
        "dst_port": pkt.dst_port,
        "protocol": pkt.protocol,
        "payload_b64": base64.b64encode(pkt.payload).decode("ascii"),
    }


def _packet_from_json(doc: dict) -> RawPacket:
    return RawPacket(
        timestamp=doc["timestamp"],
        src_addr=doc["src_addr"],
        dst_addr=doc["dst_addr"],
        src_port=doc["src_port"],
        dst_port=doc["dst_port"],
        protocol=doc["protocol"],
        payload=base64.b64decode(doc["payload_b64"]),
    )


def save_flows(flows: list[FlowRecord], path: str) -> None:
    """Write the flow store as newline-delimited JSON, atomically
    (nn_core.atomic_open): a write that fails partway leaves any old store
    as it was and no shorter one that would still load."""
    with nn_core.atomic_open(path) as fh:
        for flow in flows:
            doc = {
                "flow_id": flow.flow_id,
                "label": flow.label,
                "packets": [_packet_to_json(p) for p in flow.packets],
            }
            fh.write(json.dumps(doc) + "\n")


def load_flows(path: str) -> list[FlowRecord]:
    flows = []
    with open(path) as fh, nn_core.file_errors(path, "flow store"):
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            flows.append(FlowRecord(
                flow_id=doc["flow_id"],
                packets=[_packet_from_json(p) for p in doc["packets"]],
                label=doc["label"],
            ))
    return flows
