"""Binary codec for OpenFlow messages.

The simulator normally passes message objects by reference, but the codec
gives the messages a concrete wire form: an 8-byte OpenFlow header
(version, type, length, xid) followed by a type-specific body.  Variable
structures (matches, header dicts, action lists) are encoded as compact
tag-length-value runs.  Round-tripping through the codec is property-tested,
and the Cbench harness uses encoded sizes for throughput accounting.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.errors import OpenFlowError
from repro.openflow import actions as act
from repro.openflow.constants import (
    OFP_VERSION_13,
    FlowModCommand,
    FlowRemovedReason,
    MessageType,
    PacketInReason,
    PortReason,
    StatsType,
)
from repro.openflow.match import MATCH_FIELDS, Match
from repro.openflow.messages import (
    AggregateStatsReply,
    AggregateStatsRequest,
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
    PortStatsEntry,
    PortStatsReply,
    PortStatsRequest,
    PortStatus,
    StatsReply,
    StatsRequest,
    TableStatsEntry,
    TableStatsReply,
    TableStatsRequest,
)

_HEADER = struct.Struct("!BBHI")  # version, type, length, xid

#: Message classes the codec never encodes directly: the root and the two
#: stats intermediates, which exist only to carry shared fields.
ABSTRACT_MESSAGES = (OpenFlowMessage, StatsRequest, StatsReply)

#: Every concrete message class the codec supports, mapped to the wire
#: message type its body is encoded under.  Tests parametrize round-trips
#: over this mapping, and ``repro.analysis`` cross-checks it against the
#: class definitions in ``messages.py`` — a class missing here (or a
#: registry entry without a class) is a lint error, not a runtime surprise.
CODEC_REGISTRY: Dict[type, MessageType] = {
    Hello: MessageType.HELLO,
    EchoRequest: MessageType.ECHO_REQUEST,
    EchoReply: MessageType.ECHO_REPLY,
    FeaturesRequest: MessageType.FEATURES_REQUEST,
    FeaturesReply: MessageType.FEATURES_REPLY,
    PacketIn: MessageType.PACKET_IN,
    PacketOut: MessageType.PACKET_OUT,
    FlowMod: MessageType.FLOW_MOD,
    FlowRemoved: MessageType.FLOW_REMOVED,
    PortStatus: MessageType.PORT_STATUS,
    FlowStatsRequest: MessageType.STATS_REQUEST,
    PortStatsRequest: MessageType.STATS_REQUEST,
    AggregateStatsRequest: MessageType.STATS_REQUEST,
    TableStatsRequest: MessageType.STATS_REQUEST,
    FlowStatsReply: MessageType.STATS_REPLY,
    PortStatsReply: MessageType.STATS_REPLY,
    AggregateStatsReply: MessageType.STATS_REPLY,
    TableStatsReply: MessageType.STATS_REPLY,
    BarrierRequest: MessageType.BARRIER_REQUEST,
    BarrierReply: MessageType.BARRIER_REPLY,
}


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise OpenFlowError("string too long to encode")
    return struct.pack("!H", len(raw)) + raw


def _unpack_str(buf: bytes, offset: int) -> Tuple[str, int]:
    (length,) = struct.unpack_from("!H", buf, offset)
    offset += 2
    return buf[offset : offset + length].decode("utf-8"), offset + length


def _pack_value(value: Any) -> bytes:
    """Encode a scalar as a 1-byte type tag plus payload."""
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"B" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return b"I" + struct.pack("!q", value)
    if isinstance(value, float):
        return b"F" + struct.pack("!d", value)
    if isinstance(value, str):
        return b"S" + _pack_str(value)
    raise OpenFlowError(f"cannot encode value of type {type(value).__name__}")


def _unpack_value(buf: bytes, offset: int) -> Tuple[Any, int]:
    tag = buf[offset : offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"B":
        return buf[offset] != 0, offset + 1
    if tag == b"I":
        (value,) = struct.unpack_from("!q", buf, offset)
        return value, offset + 8
    if tag == b"F":
        (value,) = struct.unpack_from("!d", buf, offset)
        return value, offset + 8
    if tag == b"S":
        return _unpack_str(buf, offset)
    raise OpenFlowError(f"unknown value tag {tag!r}")


def _pack_dict(data: Dict[str, Any]) -> bytes:
    out = [struct.pack("!H", len(data))]
    for key in sorted(data):
        out.append(_pack_str(key))
        out.append(_pack_value(data[key]))
    return b"".join(out)


def _unpack_dict(buf: bytes, offset: int) -> Tuple[Dict[str, Any], int]:
    (count,) = struct.unpack_from("!H", buf, offset)
    offset += 2
    data: Dict[str, Any] = {}
    for _ in range(count):
        key, offset = _unpack_str(buf, offset)
        value, offset = _unpack_value(buf, offset)
        data[key] = value
    return data, offset


def _pack_match(match: Match) -> bytes:
    return _pack_dict(match.to_dict())


def _unpack_match(buf: bytes, offset: int) -> Tuple[Match, int]:
    data, offset = _unpack_dict(buf, offset)
    unknown = set(data) - set(MATCH_FIELDS)
    if unknown:
        raise OpenFlowError(f"unknown match fields on wire: {sorted(unknown)}")
    return Match(**data), offset


_ACTION_CODES = {
    "output": 0,
    "controller": 1,
    "drop": 2,
    "set_eth_src": 3,
    "set_eth_dst": 4,
    "set_ip_src": 5,
    "set_ip_dst": 6,
}


def _pack_actions(actions: List[act.Action]) -> bytes:
    out = [struct.pack("!H", len(actions))]
    for action in actions:
        code = _ACTION_CODES.get(action.kind)
        if code is None:
            raise OpenFlowError(f"cannot encode action kind {action.kind!r}")
        out.append(struct.pack("!B", code))
        if isinstance(action, act.ActionOutput):
            out.append(struct.pack("!I", action.port))
        elif isinstance(action, act.ActionController):
            out.append(struct.pack("!I", action.max_len))
        elif isinstance(action, (act.ActionSetEthSrc, act.ActionSetEthDst)):
            out.append(_pack_str(action.mac))
        elif isinstance(action, (act.ActionSetIpSrc, act.ActionSetIpDst)):
            out.append(_pack_str(action.ip))
    return b"".join(out)


def _unpack_actions(buf: bytes, offset: int) -> Tuple[List[act.Action], int]:
    (count,) = struct.unpack_from("!H", buf, offset)
    offset += 2
    out: List[act.Action] = []
    for _ in range(count):
        code = buf[offset]
        offset += 1
        if code == 0:
            (port,) = struct.unpack_from("!I", buf, offset)
            offset += 4
            out.append(act.ActionOutput(port=port))
        elif code == 1:
            (max_len,) = struct.unpack_from("!I", buf, offset)
            offset += 4
            out.append(act.ActionController(max_len=max_len))
        elif code == 2:
            out.append(act.ActionDrop())
        elif code in (3, 4):
            mac, offset = _unpack_str(buf, offset)
            cls = act.ActionSetEthSrc if code == 3 else act.ActionSetEthDst
            out.append(cls(mac=mac))
        elif code in (5, 6):
            ip, offset = _unpack_str(buf, offset)
            cls = act.ActionSetIpSrc if code == 5 else act.ActionSetIpDst
            out.append(cls(ip=ip))
        else:
            raise OpenFlowError(f"unknown action code {code}")
    return out, offset


def pack_message(msg: OpenFlowMessage, version: int = OFP_VERSION_13) -> bytes:
    """Encode a message to bytes (OpenFlow-style header + typed body)."""
    if type(msg) not in CODEC_REGISTRY:
        raise OpenFlowError(
            f"{type(msg).__name__} has no codec registration; "
            f"add it to CODEC_REGISTRY and the pack/unpack paths"
        )
    body = _pack_body(msg)
    body = struct.pack("!Q", msg.dpid) + body
    length = _HEADER.size + len(body)
    header = _HEADER.pack(version, int(msg.msg_type), length & 0xFFFF, msg.xid)
    return header + body


def _pack_body(msg: OpenFlowMessage) -> bytes:
    if isinstance(msg, Hello):
        return struct.pack("!B", msg.version)
    if isinstance(msg, (EchoRequest, EchoReply, FeaturesRequest)):
        return b""
    if isinstance(msg, (BarrierRequest, BarrierReply)):
        return b""
    if isinstance(msg, FeaturesReply):
        ports = struct.pack("!H", len(msg.ports)) + b"".join(
            struct.pack("!I", p) for p in msg.ports
        )
        return struct.pack("!B", msg.n_tables) + ports
    if isinstance(msg, PacketIn):
        return (
            struct.pack(
                "!iIBI", msg.buffer_id, msg.in_port, int(msg.reason), msg.total_len
            )
            + _pack_dict(msg.headers)
        )
    if isinstance(msg, PacketOut):
        return (
            struct.pack("!iII", msg.buffer_id, msg.in_port, msg.total_len)
            + _pack_actions(msg.actions)
            + _pack_dict(msg.headers)
        )
    if isinstance(msg, FlowMod):
        fixed = struct.pack(
            "!BIddQB",
            int(msg.command),
            msg.priority,
            msg.idle_timeout,
            msg.hard_timeout,
            msg.cookie,
            msg.table_id,
        )
        return (
            fixed
            + _pack_match(msg.match)
            + _pack_actions(msg.actions)
            + _pack_value(msg.app_id)
            + _pack_value(msg.out_port)
        )
    if isinstance(msg, FlowRemoved):
        fixed = struct.pack(
            "!IBdQQQ",
            msg.priority,
            int(msg.reason),
            msg.duration_sec,
            msg.packet_count,
            msg.byte_count,
            msg.cookie,
        )
        return fixed + _pack_match(msg.match) + _pack_value(msg.app_id)
    if isinstance(msg, PortStatus):
        return struct.pack("!IBB", msg.port_no, int(msg.reason), int(msg.link_up))
    if isinstance(msg, FlowStatsRequest):
        return (
            struct.pack("!BB", int(msg.stats_type), msg.table_id)
            + _pack_match(msg.match)
        )
    if isinstance(msg, PortStatsRequest):
        return struct.pack("!B", int(msg.stats_type)) + _pack_value(msg.port_no)
    if isinstance(msg, AggregateStatsRequest):
        return struct.pack("!B", int(msg.stats_type)) + _pack_match(msg.match)
    if isinstance(msg, TableStatsRequest):
        return struct.pack("!B", int(msg.stats_type))
    if isinstance(msg, FlowStatsReply):
        out = [struct.pack("!BI", int(msg.stats_type), len(msg.entries))]
        for entry in msg.entries:
            out.append(
                struct.pack(
                    "!IdQQddQB",
                    entry.priority,
                    entry.duration_sec,
                    entry.packet_count,
                    entry.byte_count,
                    entry.idle_timeout,
                    entry.hard_timeout,
                    entry.cookie,
                    entry.table_id,
                )
            )
            out.append(_pack_match(entry.match))
            out.append(_pack_value(entry.app_id))
        return b"".join(out)
    if isinstance(msg, PortStatsReply):
        out = [struct.pack("!BI", int(msg.stats_type), len(msg.entries))]
        for entry in msg.entries:
            out.append(
                struct.pack(
                    "!IQQQQQQQQ",
                    entry.port_no,
                    entry.rx_packets,
                    entry.tx_packets,
                    entry.rx_bytes,
                    entry.tx_bytes,
                    entry.rx_dropped,
                    entry.tx_dropped,
                    entry.rx_errors,
                    entry.tx_errors,
                )
            )
        return b"".join(out)
    if isinstance(msg, AggregateStatsReply):
        return struct.pack(
            "!BQQI",
            int(msg.stats_type),
            msg.packet_count,
            msg.byte_count,
            msg.flow_count,
        )
    if isinstance(msg, TableStatsReply):
        out = [struct.pack("!BI", int(msg.stats_type), len(msg.entries))]
        for entry in msg.entries:
            out.append(
                struct.pack(
                    "!BQQQQ",
                    entry.table_id,
                    entry.active_count,
                    entry.lookup_count,
                    entry.matched_count,
                    entry.max_entries,
                )
            )
        return b"".join(out)
    raise OpenFlowError(f"cannot encode message type {type(msg).__name__}")


def unpack_message(buf: bytes) -> OpenFlowMessage:
    """Decode bytes produced by :func:`pack_message` back into a message.

    Any malformed frame raises :class:`OpenFlowError`: a header length
    that disagrees with the buffer (modulo 2**16, as packed), a body that
    is cut short or undecodable, or one that leaves bytes unread.
    """
    if len(buf) < _HEADER.size:
        raise OpenFlowError("buffer shorter than OpenFlow header")
    _version, msg_type_raw, length, xid = _HEADER.unpack_from(buf, 0)
    if length != len(buf) & 0xFFFF:
        raise OpenFlowError(
            f"header length {length} disagrees with {len(buf)}-byte frame"
        )
    try:
        msg_type = MessageType(msg_type_raw)
    except ValueError as exc:
        raise OpenFlowError(f"unknown message type {msg_type_raw}") from exc
    try:
        (dpid,) = struct.unpack_from("!Q", buf, _HEADER.size)
        msg, end = _unpack_body(msg_type, buf, _HEADER.size + 8)
    except (struct.error, IndexError, ValueError) as exc:
        # ValueError covers bad enum codes and UnicodeDecodeError.
        raise OpenFlowError(f"malformed {msg_type.name} body: {exc}") from exc
    if end != len(buf):
        raise OpenFlowError(
            f"{msg_type.name} body ends at byte {end} of {len(buf)}"
        )
    msg.dpid = dpid
    msg.xid = xid
    return msg


def _unpack_body(
    msg_type: MessageType, buf: bytes, offset: int
) -> Tuple[OpenFlowMessage, int]:
    """Decode one body; returns the message and the offset it ends at."""
    if msg_type == MessageType.HELLO:
        return Hello(version=buf[offset]), offset + 1
    if msg_type == MessageType.ECHO_REQUEST:
        return EchoRequest(), offset
    if msg_type == MessageType.ECHO_REPLY:
        return EchoReply(), offset
    if msg_type == MessageType.FEATURES_REQUEST:
        return FeaturesRequest(), offset
    if msg_type == MessageType.BARRIER_REQUEST:
        return BarrierRequest(), offset
    if msg_type == MessageType.BARRIER_REPLY:
        return BarrierReply(), offset
    if msg_type == MessageType.FEATURES_REPLY:
        n_tables = buf[offset]
        offset += 1
        (count,) = struct.unpack_from("!H", buf, offset)
        offset += 2
        ports = []
        for _ in range(count):
            (port,) = struct.unpack_from("!I", buf, offset)
            offset += 4
            ports.append(port)
        return FeaturesReply(n_tables=n_tables, ports=ports), offset
    if msg_type == MessageType.PACKET_IN:
        buffer_id, in_port, reason, total_len = struct.unpack_from(
            "!iIBI", buf, offset
        )
        offset += struct.calcsize("!iIBI")
        headers, offset = _unpack_dict(buf, offset)
        return PacketIn(
            buffer_id=buffer_id,
            in_port=in_port,
            reason=PacketInReason(reason),
            total_len=total_len,
            headers=headers,
        ), offset
    if msg_type == MessageType.PACKET_OUT:
        buffer_id, in_port, total_len = struct.unpack_from("!iII", buf, offset)
        offset += struct.calcsize("!iII")
        actions, offset = _unpack_actions(buf, offset)
        headers, offset = _unpack_dict(buf, offset)
        return PacketOut(
            buffer_id=buffer_id,
            in_port=in_port,
            total_len=total_len,
            actions=actions,
            headers=headers,
        ), offset
    if msg_type == MessageType.FLOW_MOD:
        command, priority, idle, hard, cookie, table_id = struct.unpack_from(
            "!BIddQB", buf, offset
        )
        offset += struct.calcsize("!BIddQB")
        match, offset = _unpack_match(buf, offset)
        actions, offset = _unpack_actions(buf, offset)
        app_id, offset = _unpack_value(buf, offset)
        out_port, offset = _unpack_value(buf, offset)
        return FlowMod(
            command=FlowModCommand(command),
            match=match,
            priority=priority,
            actions=actions,
            idle_timeout=idle,
            hard_timeout=hard,
            cookie=cookie,
            table_id=table_id,
            app_id=app_id,
            out_port=out_port,
        ), offset
    if msg_type == MessageType.FLOW_REMOVED:
        priority, reason, duration, pkts, bytes_, cookie = struct.unpack_from(
            "!IBdQQQ", buf, offset
        )
        offset += struct.calcsize("!IBdQQQ")
        match, offset = _unpack_match(buf, offset)
        app_id, offset = _unpack_value(buf, offset)
        return FlowRemoved(
            match=match,
            priority=priority,
            reason=FlowRemovedReason(reason),
            duration_sec=duration,
            packet_count=pkts,
            byte_count=bytes_,
            cookie=cookie,
            app_id=app_id,
        ), offset
    if msg_type == MessageType.PORT_STATUS:
        port_no, reason, link_up = struct.unpack_from("!IBB", buf, offset)
        return PortStatus(
            port_no=port_no, reason=PortReason(reason), link_up=bool(link_up)
        ), offset + struct.calcsize("!IBB")
    if msg_type == MessageType.STATS_REQUEST:
        return _unpack_stats_request(buf, offset)
    if msg_type == MessageType.STATS_REPLY:
        return _unpack_stats_reply(buf, offset)
    raise OpenFlowError(f"cannot decode message type {msg_type!r}")


def _unpack_stats_request(
    buf: bytes, offset: int
) -> Tuple[OpenFlowMessage, int]:
    subtype = StatsType(buf[offset])
    offset += 1
    if subtype == StatsType.FLOW:
        table_id = buf[offset]
        offset += 1
        match, offset = _unpack_match(buf, offset)
        return FlowStatsRequest(match=match, table_id=table_id), offset
    if subtype == StatsType.PORT:
        port_no, offset = _unpack_value(buf, offset)
        return PortStatsRequest(port_no=port_no), offset
    if subtype == StatsType.AGGREGATE:
        match, offset = _unpack_match(buf, offset)
        return AggregateStatsRequest(match=match), offset
    if subtype == StatsType.TABLE:
        return TableStatsRequest(), offset
    raise OpenFlowError(f"cannot decode stats request subtype {subtype!r}")


def _unpack_stats_reply(buf: bytes, offset: int) -> Tuple[OpenFlowMessage, int]:
    subtype = StatsType(buf[offset])
    offset += 1
    if subtype == StatsType.FLOW:
        (count,) = struct.unpack_from("!I", buf, offset)
        offset += 4
        entries = []
        fixed = struct.Struct("!IdQQddQB")
        for _ in range(count):
            (priority, duration, pkts, bytes_, idle, hard, cookie,
             table_id) = fixed.unpack_from(buf, offset)
            offset += fixed.size
            match, offset = _unpack_match(buf, offset)
            app_id, offset = _unpack_value(buf, offset)
            entries.append(
                FlowStatsEntry(
                    match=match,
                    priority=priority,
                    duration_sec=duration,
                    packet_count=pkts,
                    byte_count=bytes_,
                    idle_timeout=idle,
                    hard_timeout=hard,
                    cookie=cookie,
                    app_id=app_id,
                    table_id=table_id,
                )
            )
        return FlowStatsReply(entries=entries), offset
    if subtype == StatsType.PORT:
        (count,) = struct.unpack_from("!I", buf, offset)
        offset += 4
        entries = []
        fixed = struct.Struct("!IQQQQQQQQ")
        for _ in range(count):
            values = fixed.unpack_from(buf, offset)
            offset += fixed.size
            entries.append(PortStatsEntry(*values))
        return PortStatsReply(entries=entries), offset
    if subtype == StatsType.AGGREGATE:
        packets, bytes_, flows = struct.unpack_from("!QQI", buf, offset)
        return AggregateStatsReply(
            packet_count=packets, byte_count=bytes_, flow_count=flows
        ), offset + struct.calcsize("!QQI")
    if subtype == StatsType.TABLE:
        (count,) = struct.unpack_from("!I", buf, offset)
        offset += 4
        entries = []
        fixed = struct.Struct("!BQQQQ")
        for _ in range(count):
            values = fixed.unpack_from(buf, offset)
            offset += fixed.size
            entries.append(TableStatsEntry(*values))
        return TableStatsReply(entries=entries), offset
    raise OpenFlowError(f"cannot decode stats reply subtype {subtype!r}")


def roundtrips(msg: OpenFlowMessage) -> bool:
    """True if ``msg`` survives an encode/decode cycle (used in tests)."""
    try:
        decoded = unpack_message(pack_message(msg))
    except OpenFlowError:
        return False
    return type(decoded) is type(msg)
