"""Classic PCAP parsing, payload vectorization, flow grouping and labeling.

Only classic PCAP is accepted (both endiannesses, microsecond and
nanosecond timestamp variants, Ethernet link type, 802.1Q and QinQ tags
skipped). PCAPNG is rejected.
No TCP reassembly or IP defragmentation is attempted.
"""
from __future__ import annotations

import base64
import csv
import ipaddress
import json
import logging
import struct
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_N_P = 1500

PCAP_MAGIC_USEC = 0xA1B2C3D4
PCAP_MAGIC_NSEC = 0xA1B23C4D
PCAPNG_MAGIC = 0x0A0D0D0A
LINKTYPE_ETHERNET = 1

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
VLAN_TAG_TYPES = (0x8100, 0x88A8)  # 802.1Q tag, 802.1ad (QinQ) service tag

PROTO_TCP = 6
PROTO_UDP = 17

TRUTH_COLUMNS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol", "label")

# Why a frame is skipped:
#   non_ip             ethertype neither IPv4 nor IPv6, or an IP version
#                      nibble that disagrees with the ethertype
#   non_tcp_udp        IP payload of another protocol (ICMP, ...)
#   fragment           IPv4 fragment other than the first (no L4 header)
#   short_header       an Ethernet, VLAN, IP, TCP or UDP header cut short,
#                      or an IP/TCP header length below its minimum
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
    original_len: int


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
    if network != LINKTYPE_ETHERNET:
        raise PcapFormatError(f"unsupported link type {network}; only Ethernet captures are handled")

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
        packet = _parse_ethernet(ts_sec + ts_frac * ts_scale, frame)
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
    body = frame[start:]
    if ethertype == ETHERTYPE_IPV4:
        return _parse_ipv4(timestamp, body)
    if ethertype == ETHERTYPE_IPV6:
        return _parse_ipv6(timestamp, body)
    return "non_ip"


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
    src = str(ipaddress.ip_address(data[12:16]))
    dst = str(ipaddress.ip_address(data[16:20]))
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
    l4 = data[40:40 + min(payload_length, max(0, len(data) - 40))]
    return _parse_l4(timestamp, src, dst, next_header, l4)


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


def extract_payload_vector(packet: RawPacket, n_p: int = DEFAULT_N_P) -> PayloadVector:
    """First min(len, n_p) payload bytes as 0-255 values, zero padded."""
    if n_p < 1:
        raise ValueError("n_p must be >= 1")
    raw = packet.payload[:n_p]
    values = np.zeros(n_p, dtype=np.uint8)
    if raw:
        values[:len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    return PayloadVector(values=values, original_len=len(raw))


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


def load_truth_csv(path: str) -> list[dict]:
    """Read a ground-truth CSV; extra columns beyond the required six are ignored."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: missing CSV header row")
        missing = [c for c in TRUTH_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        return [dict(row) for row in reader]


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
    """Write the flow store as newline-delimited JSON."""
    with open(path, "w") as fh:
        for flow in flows:
            doc = {
                "flow_id": flow.flow_id,
                "label": flow.label,
                "packets": [_packet_to_json(p) for p in flow.packets],
            }
            fh.write(json.dumps(doc) + "\n")


def load_flows(path: str) -> list[FlowRecord]:
    flows = []
    with open(path) as fh:
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
