"""Tests for the OpenFlow switch model."""

import pytest

from repro.dataplane.switch import OpenFlowSwitch
from repro.dataplane.packet import Packet
from repro.errors import DataPlaneError
from repro.openflow import (
    ActionDrop,
    ActionOutput,
    ActionSetIpDst,
    AggregateStatsRequest,
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowStatsReply,
    FlowStatsRequest,
    Match,
    PacketIn,
    PacketOut,
    PortStatsReply,
    PortStatsRequest,
    PortStatus,
    TableStatsReply,
    TableStatsRequest,
)


@pytest.fixture
def switch():
    sw = OpenFlowSwitch(dpid=1, name="s1")
    sw.add_port(1)
    sw.add_port(2)
    sw.add_port(3)
    return sw


@pytest.fixture
def channel(switch):
    messages = []
    switch.connect_controller(messages.append)
    return messages


@pytest.fixture
def transmitted(switch):
    out = []
    switch.attach_transmitter(
        lambda sw, port, packet, now: out.append((port, packet))
    )
    return out


def _packet(**headers):
    defaults = {"eth_src": "aa:00:00:00:00:01", "eth_dst": "aa:00:00:00:00:02"}
    defaults.update(headers)
    return Packet(headers=defaults, size=100)


def _install(switch, match, actions, priority=10, **kw):
    switch.handle_message(
        FlowMod(command=FlowModCommand.ADD, match=match, priority=priority,
                actions=actions, **kw),
        now=0.0,
    )


class TestPacketPath:
    def test_miss_punts_packet_in(self, switch, channel):
        switch.receive_packet(1, _packet(), now=0.0)
        assert len(channel) == 1
        assert isinstance(channel[0], PacketIn)
        assert channel[0].in_port == 1
        assert channel[0].dpid == 1

    def test_hit_forwards_and_counts(self, switch, channel, transmitted):
        _install(switch, Match(), [ActionOutput(port=2)])
        switch.receive_packet(1, _packet(), now=1.0)
        assert transmitted == [(2, transmitted[0][1])]
        entry = switch.table.entries[0]
        assert entry.stats.packet_count == 1
        assert entry.stats.byte_count == 100
        assert switch.ports[1].counters.rx_packets == 1
        assert switch.ports[2].counters.tx_packets == 1
        assert channel == []

    def test_drop_action(self, switch, transmitted):
        _install(switch, Match(), [ActionDrop()])
        switch.receive_packet(1, _packet(), now=0.0)
        assert transmitted == []
        assert switch.packets_dropped == 1

    def test_empty_action_list_drops(self, switch, transmitted):
        _install(switch, Match(), [])
        switch.receive_packet(1, _packet(), now=0.0)
        assert transmitted == []
        assert switch.packets_dropped == 1

    def test_flood_excludes_ingress(self, switch, transmitted):
        from repro.types import OFPP_FLOOD

        _install(switch, Match(), [ActionOutput(port=OFPP_FLOOD)])
        switch.receive_packet(1, _packet(), now=0.0)
        assert sorted(port for port, _ in transmitted) == [2, 3]

    def test_header_rewrite(self, switch, transmitted):
        _install(
            switch,
            Match(),
            [ActionSetIpDst(ip="10.9.9.9"), ActionOutput(port=2)],
        )
        switch.receive_packet(1, _packet(ip_dst="10.0.0.1"), now=0.0)
        assert transmitted[0][1].headers["ip_dst"] == "10.9.9.9"

    def test_down_port_drops_rx(self, switch, channel):
        switch.ports[1].up = False
        switch.receive_packet(1, _packet(), now=0.0)
        assert channel == []
        assert switch.ports[1].counters.rx_dropped == 1

    def test_unknown_port_raises(self, switch):
        with pytest.raises(DataPlaneError):
            switch.receive_packet(99, _packet(), now=0.0)

    def test_reissued_add_on_full_table(self, switch):
        switch.table.max_entries = 1
        _install(switch, Match(tcp_dst=80), [ActionOutput(port=2)], priority=5)
        _install(switch, Match(tcp_dst=80), [ActionDrop()], priority=5)
        assert [e.actions for e in switch.table.entries] == [[ActionDrop()]]


class TestBufferRelease:
    def test_flow_mod_with_buffer_forwards_pending(self, switch, channel, transmitted):
        switch.receive_packet(1, _packet(ip_src="10.0.0.1"), now=0.0)
        buffer_id = channel[0].buffer_id
        switch.handle_message(
            FlowMod(
                command=FlowModCommand.ADD,
                match=Match(),
                actions=[ActionOutput(port=2)],
                buffer_id=buffer_id,
            ),
            now=0.1,
        )
        assert len(transmitted) == 1
        assert switch.table.entries[0].stats.packet_count == 1

    def test_packet_out_releases_buffer(self, switch, channel, transmitted):
        switch.receive_packet(1, _packet(), now=0.0)
        buffer_id = channel[0].buffer_id
        switch.handle_message(
            PacketOut(buffer_id=buffer_id, actions=[ActionOutput(port=3)]),
            now=0.1,
        )
        assert transmitted == [(3, transmitted[0][1])]

    def test_packet_out_without_buffer_synthesises(self, switch, transmitted):
        switch.handle_message(
            PacketOut(
                buffer_id=-1,
                actions=[ActionOutput(port=2)],
                headers={"eth_src": "aa:00:00:00:00:09"},
                total_len=80,
            ),
            now=0.0,
        )
        assert len(transmitted) == 1
        assert transmitted[0][1].size == 80


class TestControlPath:
    def test_echo(self, switch, channel):
        switch.handle_message(EchoRequest(xid=55), now=0.0)
        assert isinstance(channel[0], EchoReply)
        assert channel[0].xid == 55

    def test_barrier(self, switch, channel):
        switch.handle_message(BarrierRequest(xid=9), now=0.0)
        assert isinstance(channel[0], BarrierReply)

    def test_features(self, switch, channel):
        switch.handle_message(FeaturesRequest(), now=0.0)
        reply = channel[0]
        assert isinstance(reply, FeaturesReply)
        assert reply.ports == [1, 2, 3]

    def test_delete_notifies_flow_removed(self, switch, channel):
        _install(switch, Match(ip_src="10.0.0.1"), [ActionOutput(port=2)])
        switch.handle_message(
            FlowMod(command=FlowModCommand.DELETE, match=Match()), now=1.0
        )
        removed = [m for m in channel if isinstance(m, FlowRemoved)]
        assert len(removed) == 1

    def test_port_status_emitted(self, switch, channel):
        switch.set_port_state(2, up=False)
        assert isinstance(channel[0], PortStatus)
        assert channel[0].link_up is False
        # Idempotent: no duplicate event.
        switch.set_port_state(2, up=False)
        assert len(channel) == 1


class TestStats:
    def test_flow_stats(self, switch, channel, transmitted):
        _install(switch, Match(ip_src="10.0.0.1"), [ActionOutput(port=2)], app_id="fwd")
        switch.receive_packet(1, _packet(ip_src="10.0.0.1"), now=1.0)
        switch.handle_message(FlowStatsRequest(match=Match(), xid=77), now=2.0)
        reply = [m for m in channel if isinstance(m, FlowStatsReply)][0]
        assert reply.xid == 77
        assert len(reply.entries) == 1
        assert reply.entries[0].packet_count == 1
        assert reply.entries[0].app_id == "fwd"
        assert reply.entries[0].duration_sec == 2.0

    def test_flow_stats_filtered(self, switch, channel):
        _install(switch, Match(ip_src="10.0.0.1"), [])
        _install(switch, Match(ip_src="10.0.0.2"), [])
        switch.handle_message(
            FlowStatsRequest(match=Match(ip_src="10.0.0.1")), now=0.0
        )
        reply = [m for m in channel if isinstance(m, FlowStatsReply)][0]
        assert len(reply.entries) == 1

    def test_port_stats_all(self, switch, channel, transmitted):
        _install(switch, Match(), [ActionOutput(port=2)])
        switch.receive_packet(1, _packet(), now=0.0)
        switch.handle_message(PortStatsRequest(), now=1.0)
        reply = [m for m in channel if isinstance(m, PortStatsReply)][0]
        assert [e.port_no for e in reply.entries] == [1, 2, 3]
        assert reply.entries[0].rx_packets == 1
        assert reply.entries[1].tx_packets == 1

    def test_port_stats_single(self, switch, channel):
        switch.handle_message(PortStatsRequest(port_no=2), now=0.0)
        reply = [m for m in channel if isinstance(m, PortStatsReply)][0]
        assert len(reply.entries) == 1

    def test_aggregate_stats(self, switch, channel, transmitted):
        _install(switch, Match(ip_src="10.0.0.1"), [ActionOutput(port=2)])
        switch.receive_packet(1, _packet(ip_src="10.0.0.1"), now=0.0)
        switch.receive_packet(1, _packet(ip_src="10.0.0.1"), now=0.1)
        switch.handle_message(AggregateStatsRequest(match=Match()), now=1.0)
        reply = channel[-1]
        assert reply.packet_count == 2
        assert reply.flow_count == 1

    def test_table_stats(self, switch, channel):
        _install(switch, Match(ip_src="10.0.0.1"), [])
        switch.handle_message(TableStatsRequest(), now=0.0)
        reply = [m for m in channel if isinstance(m, TableStatsReply)][0]
        assert reply.entries[0].active_count == 1


class TestExpiry:
    def test_expire_flows_notifies(self, switch, channel):
        _install(
            switch, Match(ip_src="10.0.0.1"), [ActionOutput(port=2)],
            idle_timeout=1.0,
        )
        assert switch.expire_flows(0.5) == 0
        assert switch.expire_flows(2.0) == 1
        removed = [m for m in channel if isinstance(m, FlowRemoved)]
        assert len(removed) == 1
        assert switch.flow_count() == 0
