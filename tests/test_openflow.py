"""Tests for the OpenFlow layer: matches, flow entries, messages, codec."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import OpenFlowError
from repro.openflow import (
    ActionController,
    ActionDrop,
    ActionOutput,
    ActionSetIpDst,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowRemovedReason,
    Hello,
    Match,
    PacketIn,
    PacketInReason,
    PacketOut,
    PortStatus,
    pack_message,
    unpack_message,
)
from repro.openflow.flow import FlowEntry, FlowStats
from repro.openflow.match import MATCH_FIELDS


class TestMatch:
    def test_wildcard_matches_everything(self):
        assert Match().matches({"ip_src": "1.2.3.4", "in_port": 1})

    def test_exact_field(self):
        match = Match(ip_src="10.0.0.1")
        assert match.matches({"ip_src": "10.0.0.1"})
        assert not match.matches({"ip_src": "10.0.0.2"})
        assert not match.matches({})

    def test_multiple_fields_all_required(self):
        match = Match(ip_src="10.0.0.1", tcp_dst=80)
        assert match.matches({"ip_src": "10.0.0.1", "tcp_dst": 80})
        assert not match.matches({"ip_src": "10.0.0.1", "tcp_dst": 81})

    def test_specificity(self):
        assert Match().specificity() == 0
        assert Match(ip_src="1.1.1.1", tcp_dst=80).specificity() == 2

    def test_subset(self):
        narrow = Match(ip_src="10.0.0.1", tcp_dst=80)
        wide = Match(ip_src="10.0.0.1")
        assert narrow.is_subset_of(wide)
        assert not wide.is_subset_of(narrow)
        assert narrow.is_subset_of(Match())

    def test_compiled_and_reference_paths_agree(self):
        from tests.oracles import match_matches

        match = Match(ip_src="10.0.0.1", ip_proto=6, tcp_dst=80)
        probes = [
            {"ip_src": "10.0.0.1", "ip_proto": 6, "tcp_dst": 80},
            {"ip_src": "10.0.0.1", "ip_proto": 6, "tcp_dst": 81},
            {"ip_src": "10.0.0.1"},
            {},
        ]
        fast = [match.matches(h) for h in probes]
        slow = [match_matches(match, h) for h in probes]
        assert fast == slow == [True, False, False, False]

    def test_pickle_and_deepcopy_recompile(self):
        import copy
        import pickle

        match = Match(ip_src="10.0.0.1", tcp_dst=80)
        for clone in (pickle.loads(pickle.dumps(match)), copy.deepcopy(match)):
            assert clone == match
            assert hash(clone) == hash(match)
            assert clone.matches({"ip_src": "10.0.0.1", "tcp_dst": 80})
            assert not clone.matches({"ip_src": "10.0.0.2", "tcp_dst": 80})
            assert clone.key_tuple() == match.key_tuple()

    def test_key_tuple_follows_field_order(self):
        match = Match(in_port=3, tcp_dst=80)
        key = match.key_tuple()
        assert len(key) == len(MATCH_FIELDS)
        assert key[MATCH_FIELDS.index("in_port")] == 3
        assert key[MATCH_FIELDS.index("tcp_dst")] == 80
        assert all(
            key[i] is None
            for i, name in enumerate(MATCH_FIELDS)
            if name not in ("in_port", "tcp_dst")
        )

    def test_to_dict_only_set_fields(self):
        assert Match(ip_proto=6).to_dict() == {"ip_proto": 6}
        assert Match().to_dict() == {}

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(OpenFlowError):
            Match.from_dict({"bogus": 1})

    def test_exact_from_headers_ignores_non_match_keys(self):
        match = Match.exact_from_headers({"ip_src": "1.1.1.1", "weird": 9})
        assert match.to_dict() == {"ip_src": "1.1.1.1"}

    def test_hashable(self):
        assert len({Match(ip_src="1.1.1.1"), Match(ip_src="1.1.1.1")}) == 1

    @given(
        st.dictionaries(
            st.sampled_from(["in_port", "tcp_src", "tcp_dst", "vlan_id"]),
            st.integers(min_value=0, max_value=65535),
            max_size=4,
        )
    )
    def test_match_accepts_own_headers_property(self, fields):
        match = Match.from_dict(fields)
        assert match.matches(dict(fields))


class TestFlowEntry:
    def test_counters_update(self):
        entry = FlowEntry(match=Match(), stats=FlowStats(install_time=0.0))
        entry.stats.record(100, now=1.0)
        entry.stats.record(50, now=2.0, packets=2)
        assert entry.stats.packet_count == 3
        assert entry.stats.byte_count == 150
        assert entry.stats.duration(5.0) == 5.0

    def test_idle_expiry(self):
        entry = FlowEntry(match=Match(), idle_timeout=2.0)
        entry.stats.install_time = 0.0
        entry.stats.last_packet_time = 1.0
        assert not entry.is_idle_expired(2.9)
        assert entry.is_idle_expired(3.0)

    def test_hard_expiry(self):
        entry = FlowEntry(match=Match(), hard_timeout=5.0)
        entry.stats.install_time = 1.0
        entry.stats.last_packet_time = 5.9
        assert not entry.is_hard_expired(5.9)
        assert entry.is_hard_expired(6.0)

    def test_zero_timeouts_never_expire(self):
        entry = FlowEntry(match=Match())
        assert not entry.is_idle_expired(1e9)
        assert not entry.is_hard_expired(1e9)

    def test_sort_key_priority_then_specificity(self):
        high = FlowEntry(match=Match(), priority=100)
        specific = FlowEntry(match=Match(ip_src="1.1.1.1"), priority=10)
        loose = FlowEntry(match=Match(), priority=10)
        ordered = sorted([loose, specific, high], key=FlowEntry.sort_key)
        assert ordered == [high, specific, loose]


def _roundtrip(msg):
    decoded = unpack_message(pack_message(msg))
    assert type(decoded) is type(msg)
    assert decoded.xid == msg.xid
    assert decoded.dpid == msg.dpid
    return decoded


class TestSerialization:
    def test_hello(self):
        decoded = _roundtrip(Hello(dpid=7, version=0x04))
        assert decoded.version == 0x04

    def test_packet_in(self):
        msg = PacketIn(
            dpid=3,
            buffer_id=12,
            in_port=4,
            reason=PacketInReason.NO_MATCH,
            headers={"ip_src": "10.0.0.1", "tcp_dst": 80, "eth_type": 0x0800},
            total_len=1400,
        )
        decoded = _roundtrip(msg)
        assert decoded.headers == msg.headers
        assert decoded.in_port == 4
        assert decoded.total_len == 1400

    def test_flow_mod(self):
        msg = FlowMod(
            dpid=1,
            command=FlowModCommand.ADD,
            match=Match(ip_src="10.0.0.1", tcp_dst=80),
            priority=42,
            actions=[ActionOutput(port=3), ActionSetIpDst(ip="10.9.9.9")],
            idle_timeout=10.0,
            hard_timeout=60.0,
            cookie=77,
            app_id="fwd",
        )
        decoded = _roundtrip(msg)
        assert decoded.match == msg.match
        assert decoded.priority == 42
        assert decoded.actions == msg.actions
        assert decoded.app_id == "fwd"

    def test_flow_removed(self):
        msg = FlowRemoved(
            dpid=2,
            match=Match(ip_src="10.0.0.5"),
            priority=5,
            reason=FlowRemovedReason.IDLE_TIMEOUT,
            duration_sec=12.5,
            packet_count=100,
            byte_count=5000,
            app_id="lb",
        )
        decoded = _roundtrip(msg)
        assert decoded.packet_count == 100
        assert decoded.reason == FlowRemovedReason.IDLE_TIMEOUT
        assert decoded.app_id == "lb"

    def test_packet_out(self):
        msg = PacketOut(
            dpid=1,
            buffer_id=5,
            in_port=1,
            actions=[ActionController(), ActionDrop()],
            headers={"eth_src": "aa:bb:cc:dd:ee:ff"},
            total_len=64,
        )
        decoded = _roundtrip(msg)
        assert decoded.actions == msg.actions

    def test_port_status(self):
        decoded = _roundtrip(PortStatus(dpid=1, port_no=9, link_up=False))
        assert decoded.port_no == 9
        assert decoded.link_up is False

    def test_truncated_buffer_rejected(self):
        with pytest.raises(OpenFlowError):
            unpack_message(b"\x01\x00")

    @given(
        st.dictionaries(
            st.sampled_from(list(MATCH_FIELDS)),
            st.one_of(
                st.integers(min_value=0, max_value=65535),
                st.text(
                    alphabet="abcdef0123456789:.", min_size=1, max_size=20
                ),
            ),
            max_size=6,
        ),
        st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_flow_mod_roundtrip_property(self, match_fields, priority):
        msg = FlowMod(
            dpid=1,
            match=Match.from_dict(match_fields),
            priority=priority,
            actions=[ActionOutput(port=1)],
        )
        decoded = unpack_message(pack_message(msg))
        assert decoded.match == msg.match
        assert decoded.priority == priority
