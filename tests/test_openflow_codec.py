"""Round-trip coverage for every registered OpenFlow message type.

The codec's invariant — every concrete message class has pack and unpack
support — is enforced statically by ``repro.analysis`` (rule family
ATH4xx) and exercised at runtime here, parametrized over the same
``CODEC_REGISTRY`` the checker reads.
"""

import dataclasses
import random
import struct

import pytest

from repro.errors import OpenFlowError
from repro.openflow import messages as msgs
from repro.openflow.actions import ActionController, ActionOutput, ActionSetIpDst
from repro.openflow.constants import (
    FlowModCommand,
    FlowRemovedReason,
    PacketInReason,
    PortReason,
)
from repro.openflow.match import Match
from repro.openflow.serialization import (
    ABSTRACT_MESSAGES,
    CODEC_REGISTRY,
    pack_message,
    unpack_message,
)


def _sample_match() -> Match:
    return Match(ip_src="10.0.0.1", ip_dst="10.0.0.2", tcp_dst=80)


#: Non-default field values per class, so round-trips exercise real payloads
#: rather than empty defaults.
_SAMPLE_FIELDS = {
    msgs.Hello: dict(version=0x04),
    msgs.FeaturesReply: dict(n_tables=3, ports=[1, 2, 3]),
    msgs.PacketIn: dict(
        buffer_id=42,
        in_port=3,
        reason=PacketInReason.ACTION,
        headers={"ip_src": "10.0.0.1", "ip_proto": 6},
        total_len=128,
    ),
    msgs.PacketOut: dict(
        buffer_id=-1,
        in_port=2,
        actions=[ActionOutput(port=4), ActionController(max_len=64)],
        headers={"eth_src": "00:00:00:00:00:01"},
        total_len=60,
    ),
    msgs.FlowMod: dict(
        command=FlowModCommand.MODIFY,
        match=_sample_match(),
        priority=100,
        actions=[ActionOutput(port=1), ActionSetIpDst(ip="10.9.9.9")],
        idle_timeout=5.0,
        hard_timeout=60.0,
        cookie=0xABC,
        app_id="fwd",
        table_id=1,
        out_port=7,
    ),
    msgs.FlowRemoved: dict(
        match=_sample_match(),
        priority=10,
        reason=FlowRemovedReason.HARD_TIMEOUT,
        duration_sec=12.5,
        packet_count=1000,
        byte_count=64000,
        cookie=3,
        app_id="fwd",
    ),
    msgs.PortStatus: dict(port_no=9, reason=PortReason.DELETE, link_up=False),
    msgs.FlowStatsRequest: dict(match=_sample_match(), table_id=2),
    msgs.PortStatsRequest: dict(port_no=5),
    msgs.AggregateStatsRequest: dict(match=_sample_match()),
    msgs.FlowStatsReply: dict(
        entries=[
            msgs.FlowStatsEntry(
                match=_sample_match(),
                priority=10,
                duration_sec=4.0,
                packet_count=12,
                byte_count=900,
                idle_timeout=5.0,
                hard_timeout=0.0,
                cookie=1,
                app_id="fwd",
                table_id=0,
            )
        ]
    ),
    msgs.PortStatsReply: dict(
        entries=[msgs.PortStatsEntry(port_no=1, rx_packets=5, tx_bytes=700)]
    ),
    msgs.AggregateStatsReply: dict(packet_count=9, byte_count=512, flow_count=2),
    msgs.TableStatsReply: dict(
        entries=[msgs.TableStatsEntry(table_id=0, active_count=4, lookup_count=99)]
    ),
}


def _sample(cls):
    return cls(dpid=11, **_SAMPLE_FIELDS.get(cls, {}))


@pytest.mark.parametrize(
    "cls", sorted(CODEC_REGISTRY, key=lambda c: c.__name__), ids=lambda c: c.__name__
)
class TestRegistryRoundtrips:
    def test_roundtrip_preserves_type_and_fields(self, cls):
        msg = _sample(cls)
        decoded = unpack_message(pack_message(msg))
        assert type(decoded) is cls
        assert decoded.dpid == msg.dpid
        assert decoded.xid == msg.xid
        assert decoded.msg_type == CODEC_REGISTRY[cls]
        for field in dataclasses.fields(cls):
            if field.name in ("dpid", "xid", "msg_type", "buffer_id"):
                continue  # buffer_id of FlowMod is not carried on the wire
            assert getattr(decoded, field.name) == getattr(msg, field.name), field.name


class TestRegistryCompleteness:
    def test_every_concrete_message_class_is_registered(self):
        concrete = {
            obj
            for obj in vars(msgs).values()
            if isinstance(obj, type)
            and issubclass(obj, msgs.OpenFlowMessage)
            and obj not in ABSTRACT_MESSAGES
        }
        assert concrete == set(CODEC_REGISTRY)

    def test_registry_types_match_declared_msg_type(self):
        for cls, wire_type in CODEC_REGISTRY.items():
            assert _sample(cls).msg_type == wire_type

    def test_abstract_messages_are_rejected(self):
        with pytest.raises(OpenFlowError, match="codec registration"):
            pack_message(msgs.StatsRequest())


@pytest.mark.parametrize(
    "cls", sorted(CODEC_REGISTRY, key=lambda c: c.__name__), ids=lambda c: c.__name__
)
class TestMalformedFrames:
    """The codec is a trust boundary: bad frames raise OpenFlowError only."""

    def test_every_truncation_is_rejected(self, cls):
        frame = pack_message(_sample(cls))
        for cut in range(len(frame)):
            with pytest.raises(OpenFlowError):
                unpack_message(frame[:cut])

    def test_trailing_bytes_are_rejected(self, cls):
        padded = bytearray(pack_message(_sample(cls)) + b"\x00")
        struct.pack_into("!H", padded, 2, len(padded) & 0xFFFF)
        with pytest.raises(OpenFlowError, match="ends at byte"):
            unpack_message(bytes(padded))

    def test_bit_flips_raise_only_openflow_error(self, cls):
        frame = pack_message(_sample(cls))
        rng = random.Random(cls.__name__)
        for _ in range(300):
            bit = rng.randrange(len(frame) * 8)
            flipped = bytearray(frame)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                unpack_message(bytes(flipped))
            except OpenFlowError:
                pass
