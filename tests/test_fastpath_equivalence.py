"""Bit-identical equivalence of the hot paths with their oracles (docs/PERF.md).

The indexed flow tables, compiled matches and zero-copy distdb reads
must be invisible to everything above them: the same simulated scenario
run on them and on the reference implementations of ``tests/oracles.py``
has to produce the same winners, the same evictions, the same query
results — and therefore the same deterministic telemetry snapshot,
byte-for-byte.  Two anomaly-shaped mini-scenarios check that end to end:
a port scan (one source fanning out over many destination ports,
exercising many tiny exact-match flows and idle expiry) and a DDoS-style
flood (several sources converging on one target, exercising per-flow
feature queries).
"""

import pytest

from repro.controller import ControllerCluster, ReactiveForwarding
from repro.core import AthenaDeployment
from repro.dataplane.topologies import linear_topology
from repro.telemetry import configure, reset_telemetry, to_json
from repro.workloads.flows import FlowSpec, TrafficSchedule
from tests import oracles


@pytest.fixture(autouse=True)
def _restore_telemetry():
    yield
    reset_telemetry()


def _run(scenario):
    """One deterministic run; returns the JSON-serialized deterministic
    telemetry snapshot."""
    reset_telemetry()
    telemetry = configure(enabled=True)
    topo = linear_topology(n_switches=2, hosts_per_switch=2)
    cluster = ControllerCluster(topo.network, n_instances=1)
    cluster.adopt_all()
    cluster.start(poll=False)
    # A short idle timeout so flow expiry (the heap path) fires
    # repeatedly inside the run.
    ReactiveForwarding(idle_timeout=1.5).activate(cluster)
    athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
    athena.start()
    schedule = TrafficSchedule(topo.network)
    schedule.prime_arp()
    scenario(schedule)
    topo.network.sim.run(until=4.0)
    snapshot = telemetry.snapshot(deterministic_only=True)
    reset_telemetry()
    return to_json(snapshot)


def _run_both(scenario, monkeypatch):
    """The scenario on the shipped hot paths, then on the oracles."""
    fast = _run(scenario)
    oracles.install(monkeypatch)
    return fast, _run(scenario)


def _portscan(schedule):
    """h1 scans h3 across many ports; h2 talks to h4 normally."""
    for port in range(12):
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h3", sport=52000 + port,
                     dport=1000 + port, packet_size=64, rate_pps=4.0,
                     start=0.5 + port * 0.05, duration=1.0)
        )
    schedule.add_flow(
        FlowSpec(src_host="h2", dst_host="h4", sport=33000, dport=80,
                 rate_pps=10.0, start=0.5, duration=3.0, bidirectional=True)
    )


def _ddos_flood(schedule):
    """Three sources flood h3 while one benign flow rides along."""
    for i, src in enumerate(("h1", "h2", "h4")):
        schedule.add_flow(
            FlowSpec(src_host=src, dst_host="h3", sport=40000 + i, dport=80,
                     packet_size=120, rate_pps=40.0, start=0.4 + 0.1 * i,
                     duration=2.5)
        )
    schedule.add_flow(
        FlowSpec(src_host="h4", dst_host="h1", sport=33001, dport=443,
                 rate_pps=5.0, start=0.6, duration=3.0, bidirectional=True)
    )


def _assert_nontrivial(snapshot_json):
    import json

    by_name = {m["name"]: m for m in json.loads(snapshot_json)["metrics"]}
    assert by_name["athena_southbound_messages_total"]["samples"]


class TestFastPathEquivalence:
    def test_portscan_snapshots_identical(self, monkeypatch):
        fast, slow = _run_both(_portscan, monkeypatch)
        _assert_nontrivial(fast)
        assert fast == slow

    def test_ddos_snapshots_identical(self, monkeypatch):
        fast, slow = _run_both(_ddos_flood, monkeypatch)
        _assert_nontrivial(fast)
        assert fast == slow
