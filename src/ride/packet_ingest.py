"""Classic PCAP parsing, payload vectorization, flow grouping and labeling.

Only classic PCAP is accepted (both endiannesses, microsecond and
nanosecond timestamp variants; Ethernet with 802.1Q and QinQ tags skipped,
raw IP and Linux cooked (SLL) link types; IPv6 hop-by-hop, routing,
fragment and destination-options headers walked). PCAPNG is rejected.
No TCP reassembly or IP defragmentation is attempted.
"""
from __future__ import annotations

import csv
import functools
import ipaddress
import logging
import operator
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


@dataclass(slots=True)
class RawPacket:
    """A TCP or UDP packet. The packets of a 5-tuple share its address, port
    and protocol objects (parse_pcap, load_flows); the payload is bytes."""
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


@dataclass(slots=True)
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


def parse_pcap(capture: bytes) -> ParsedCapture:
    """Parse a classic PCAP capture (bytes; other buffers are copied to
    bytes once) into TCP/UDP RawPackets.

    Each header is read in place by one precompiled struct, so a packet's
    payload is the only part copied. Each address is decoded to text once
    per capture, and the packets of a 5-tuple share its field objects.

    Frames that yield no TCP/UDP packet are counted per reason (see
    SKIP_REASONS) in n_skipped_by_reason; n_skipped is their sum. A
    truncated record stops parsing; whatever was parsed so far is returned
    with n_truncated incremented.
    """
    capture = capture if isinstance(capture, bytes) else bytes(memoryview(capture))
    if len(capture) < 24:
        raise PcapFormatError("capture shorter than the 24-byte global header")
    magic_be = struct.unpack(">I", capture[:4])[0]
    magic_le = struct.unpack("<I", capture[:4])[0]
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

    network = struct.unpack_from(endian + "I", capture, 20)[0]  # the global header's link type
    parse_frame = _FRAME_PARSERS.get(network)
    if parse_frame is None:
        raise PcapFormatError(f"unsupported link type {network}; handled: Ethernet "
                              f"({LINKTYPE_ETHERNET}), raw IP ({LINKTYPE_RAW}) and "
                              f"Linux SLL ({LINKTYPE_LINUX_SLL})")

    result = ParsedCapture()
    record_header = struct.Struct(endian + "III4x")  # seconds, fraction, captured length
    # one object per address (its text decoded once) and port of the capture,
    # and one tuple of them per raw 5-tuple, which its packets share
    value = functools.cache(lambda raw: str(ipaddress.ip_address(raw))
                            if type(raw) is bytes else raw)
    fields: dict[tuple, tuple] = {}
    offset, total = 24, len(capture)
    while offset < total:
        if offset + 16 > total:
            logger.warning("truncated record header at byte %d; stopping", offset)
            result.n_truncated += 1
            break
        ts_sec, ts_frac, incl_len = record_header.unpack_from(capture, offset)
        offset += 16
        end = offset + incl_len
        if end > total:
            logger.warning("truncated record body at byte %d; stopping", offset)
            result.n_truncated += 1
            break
        parsed = parse_frame(capture, offset, end)
        offset = end
        if isinstance(parsed, str):
            result.n_skipped_by_reason[parsed] += 1
            continue
        key, start, stop = parsed
        shared = fields.get(key) or fields.setdefault(key, tuple(map(value, key)))
        result.packets.append(RawPacket(ts_sec + ts_frac * ts_scale, *shared, capture[start:stop]))
    return result


# The _parse_* helpers read the frame at buf[start:end] in place. Each returns
# the raw 5-tuple (packed addresses, ports, "TCP" or "UDP") and payload bounds
# of its packet, or the SKIP_REASONS entry that explains why it holds none.
_U16 = struct.Struct(">H")  # an ethertype, an IPv6 fragment offset
_IPV4 = struct.Struct(">BxH2xHxB2x4s4s")  # version/IHL, length, fragment, protocol, addresses
_IPV6 = struct.Struct(">B3xHBx16s16s")  # version, payload length, next header, addresses
_TCP = struct.Struct(">HH8xB")  # ports, data offset
_UDP = struct.Struct(">HHH")  # ports, length


def _parse_ethernet(buf: bytes, start: int, end: int) -> tuple | str:
    if end - start < 14:
        return "short_header"
    ethertype = _U16.unpack_from(buf, start + 12)[0]
    start += 14
    while ethertype in VLAN_TAG_TYPES:  # each 4-byte tag ends in the inner type
        if end < start + 4:
            return "short_header"
        ethertype = _U16.unpack_from(buf, start + 2)[0]
        start += 4
    parse_ip = _IP_BY_ETHERTYPE.get(ethertype)
    return "non_ip" if parse_ip is None else parse_ip(buf, start, end)


def _parse_sll(buf: bytes, start: int, end: int) -> tuple | str:
    if end - start < 16:
        return "short_header"
    parse_ip = _IP_BY_ETHERTYPE.get(_U16.unpack_from(buf, start + 14)[0])
    return "non_ip" if parse_ip is None else parse_ip(buf, start + 16, end)


def _parse_raw_ip(buf: bytes, start: int, end: int) -> tuple | str:
    if start == end:
        return "short_header"
    parse_ip = _IP_BY_VERSION.get(buf[start] >> 4)
    return "non_ip" if parse_ip is None else parse_ip(buf, start, end)


def _parse_ipv4(buf: bytes, start: int, end: int) -> tuple | str:
    if end - start < 20:
        return "short_header"
    version_ihl, total_length, frag, proto, src, dst = _IPV4.unpack_from(buf, start)
    if version_ihl >> 4 != 4:
        return "non_ip"
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20 or end - start < ihl:
        return "short_header"
    if frag & 0x1FFF:  # non-first fragment, no L4 header present
        return "fragment"
    if total_length == 0:
        return "zero_total_length"
    # Ethernet padding may run past the datagram, or the snap length cut it
    # (no min/max here or below: a builtin call costs more than a header).
    if total_length < end - start:
        end = start + (total_length if total_length > ihl else ihl)
    return _parse_l4(buf, start + ihl, end, src, dst, proto)


def _parse_ipv6(buf: bytes, start: int, end: int) -> tuple | str:
    if end - start < 40:
        return "short_header"
    version, payload_length, next_header, src, dst = _IPV6.unpack_from(buf, start)
    if version >> 4 != 6:
        return "non_ip"
    start += 40
    if payload_length < end - start:
        end = start + payload_length
    while next_header in IPV6_EXTENSION_HEADERS:
        if end < start + 8:
            return "short_header"
        if next_header == IPV6_FRAGMENT:
            if _U16.unpack_from(buf, start + 2)[0] >> 3:
                return "fragment"  # not the first: no L4 header present
            length = 8
        else:  # hop-by-hop, routing, destination options: 8-byte units past the first
            length = (buf[start + 1] + 1) * 8
        next_header = buf[start]
        start += length
    if end < start:
        return "short_header"
    return _parse_l4(buf, start, end, src, dst, next_header)


def _parse_l4(buf: bytes, start: int, end: int, src: bytes, dst: bytes, proto: int) -> tuple | str:
    if proto == PROTO_TCP:
        if end - start < 20:
            return "short_header"
        sport, dport, offset_byte = _TCP.unpack_from(buf, start)
        data_offset = (offset_byte >> 4) * 4
        if data_offset < 20 or end - start < data_offset:
            return "short_header"
        return (src, dst, sport, dport, "TCP"), start + data_offset, end
    if proto == PROTO_UDP:
        if end - start < 8:
            return "short_header"
        sport, dport, udp_len = _UDP.unpack_from(buf, start)
        if udp_len < end - start:
            end = start + (udp_len if udp_len > 8 else 8)
        return (src, dst, sport, dport, "UDP"), start + 8, end
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
    """Partition packets by canonical 5-tuple: flows in first-seen order,
    each flow's packets in timestamp order (capture order breaks ties). A
    packet is looked up by its own 5-tuple, which a new flow enters with
    its reply's, so canonical_flow_key runs about once per flow."""
    flows: dict[str, FlowRecord] = {}
    by_direction: dict[tuple, FlowRecord] = {}
    for pkt in packets:
        direction = (pkt.src_addr, pkt.dst_addr, pkt.src_port, pkt.dst_port, pkt.protocol)
        record = by_direction.get(direction)
        if record is None:
            key = canonical_flow_key(*direction)
            record = flows.get(key)
            if record is None:
                flows[key] = record = FlowRecord(flow_id=key, packets=[])
                src, dst, sport, dport, protocol = direction
                by_direction[dst, src, dport, sport, protocol] = record
            by_direction[direction] = record
        record.packets.append(pkt)
    by_time = operator.attrgetter("timestamp")
    for record in flows.values():
        record.packets.sort(key=by_time)  # stable
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


_PACKET_ARRAYS = {"timestamp": "f8", "src_addr": "S", "dst_addr": "S",
                  "src_port": "u2", "dst_port": "u2", "protocol": "S"}


def save_flows(flows: list[FlowRecord], path: str) -> None:
    """Write the flow store as one .npz (nn_core.save_artifact): flow j has
    flow_ids[j] and meta["labels"][j] (JSON keeps any str whole) and owns
    packets offsets[j]:offsets[j + 1]; packet i has the _PACKET_ARRAYS at i
    and bytes payload_end[i - 1]:payload_end[i] of payload."""
    packets = [pkt for flow in flows for pkt in flow.packets]
    nn_core.save_artifact(path, {"labels": [flow.label for flow in flows]}, arrays={
        "flow_ids": np.array([flow.flow_id for flow in flows], dtype="S"),
        "offsets": np.cumsum([0] + [len(flow.packets) for flow in flows], dtype=np.int64),
        **{name: np.array([getattr(pkt, name) for pkt in packets], dtype=dtype)
           for name, dtype in _PACKET_ARRAYS.items()},
        "payload_end": np.cumsum([len(pkt.payload) for pkt in packets], dtype=np.int64),
        "payload": np.frombuffer(b"".join(pkt.payload for pkt in packets), dtype=np.uint8),
    })


def load_flows(path: str) -> list[FlowRecord]:
    """The flows save_flows wrote, in parse_pcap's form: the packets share
    one object per address, port and protocol value. A store whose arrays
    do not fit together raises ValueError("bad flow store file <path>: ...")."""
    names = ("flow_ids", "offsets", *_PACKET_ARRAYS, "payload_end", "payload")
    meta, _, arrays = nn_core.load_artifact(path, arrays=names, fields=("labels",),
                                            kind="flow store")
    with nn_core.file_errors(path, "flow store"):  # strict zips check the other lengths
        n, n_packets, payload = arrays["flow_ids"].size, arrays["timestamp"].size, arrays["payload"]
        if (payload.dtype != np.uint8 or not nn_core.fits_offsets(arrays["offsets"], n, n_packets)
                or not nn_core.fits_offsets(np.concatenate([[0], arrays["payload_end"]]),
                                            n_packets, payload.size, least=0)):
            raise ValueError(f"arrays {({k: a.shape for k, a in arrays.items()})} do not fit")
        lists = {name: (a.astype(str) if a.dtype.kind == "S" else a).tolist()
                 for name, a in arrays.items() if name != "payload"}
        seen: dict = {}
        for name in ("src_addr", "dst_addr", "src_port", "dst_port", "protocol"):
            lists[name] = [seen.setdefault(value, value) for value in lists[name]]
        data, ends, offsets = payload.tobytes(), [0] + lists["payload_end"], lists["offsets"]
        packets = [RawPacket(*fields, data[start:end]) for *fields, start, end in zip(
            *(lists[name] for name in _PACKET_ARRAYS), ends[:-1], ends[1:], strict=True)]
        return [FlowRecord(flow_id, packets[start:end], label) for flow_id, label, start, end
                in zip(lists["flow_ids"], meta["labels"], offsets[:-1], offsets[1:], strict=True)]
