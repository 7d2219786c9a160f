"""``stream_ingest``: the streaming detection path alone.

Set-up pre-builds a seeded stream of controller events over a
Pareto-skewed population of flows — PacketIns, FlowRemoveds and
Athena-marked flow-stats replies of :data:`STATS_ENTRIES` entries — and
trains an ``OnlineGaussianNB`` on the labelled DDoS dataset.  One round
replays the whole stream, back to back from one thread, through an
``EventBus`` into a fresh ``StreamingPipeline`` and
``StreamingDetectorManager`` carrying a sliding-window fan-out detector and
the frozen NB.  Each published controller event is a timed operation; the
work unit is a folded stream event (a stats reply folds into one per entry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

#: Controller events per replayed stream.
EVENTS = 3_000
FLOWS = 20_000
SOURCES = 2_000
STATS_ENTRIES = 16
#: Event mix: PacketIn, FlowRemoved, flow-stats reply.
KIND_SHARES = (0.55, 0.15, 0.30)
#: Zipf exponent of flow (and source) popularity.
SKEW = 1.1
NB_FEATURES = [
    "FLOW_PACKET_COUNT",
    "FLOW_BYTE_PER_PACKET",
    "FLOW_PACKET_PER_DURATION",
    "PAIR_FLOW",
]
SAMPLED_KINDS = ("flow_stats", "flow_removed")


@dataclass
class _State:
    events: List[Any]
    offered_units: int
    learner: Any
    digests: List[str] = field(default_factory=list)


def _skewed(rng: np.random.Generator, population: int, size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, population + 1) ** SKEW
    return rng.choice(population, size=size, p=weights / weights.sum())


def build_events(seed: int):
    """The seeded controller-event stream and the units it offers."""
    from repro.controller.events import FlowRemovedEvent, PacketInEvent, StatsEvent
    from repro.openflow.match import Match
    from repro.openflow.messages import (
        FlowRemoved,
        FlowStatsEntry,
        FlowStatsReply,
        PacketIn,
    )

    rng = np.random.default_rng(seed)
    sources = _skewed(rng, SOURCES, FLOWS)
    headers = [
        {
            "ip_src": f"10.1.{src // 250}.{src % 250}",
            "ip_dst": f"10.2.{dst // 250}.{dst % 250}",
            "ip_proto": 6,
            "tcp_src": 30_000 + flow % 30_000,
            "tcp_dst": int(dport),
        }
        for flow, (src, dst, dport) in enumerate(zip(
            sources,
            rng.integers(0, 1_000, FLOWS),
            rng.choice([22, 53, 80, 443, 8080], FLOWS),
        ))
    ]
    matches = [Match.exact_from_headers(h) for h in headers]
    packet_size = rng.choice([64, 300, 900, 1400], FLOWS)
    packets = np.zeros(FLOWS, dtype=np.int64)
    started = np.zeros(FLOWS)
    kinds = rng.choice(3, size=EVENTS, p=KIND_SHARES)
    flows = _skewed(rng, FLOWS, EVENTS * STATS_ENTRIES).reshape(
        EVENTS, STATS_ENTRIES
    )
    growth = rng.integers(1, 40, size=(EVENTS, STATS_ENTRIES))
    events: List[Any] = []
    units = 0
    for index, kind in enumerate(kinds):
        now = index * 1e-3
        dpid = 1 + int(flows[index, 0]) % 8
        if kind == 0:
            flow = int(flows[index, 0])
            if packets[flow] == 0:
                started[flow] = now
            events.append(PacketInEvent(
                instance_id=0, dpid=dpid, time=now,
                message=PacketIn(dpid=dpid, headers=headers[flow],
                                 total_len=int(packet_size[flow])),
            ))
            units += 1
        elif kind == 1:
            flow = int(flows[index, 0])
            count = int(packets[flow]) + int(growth[index, 0])
            events.append(FlowRemovedEvent(
                instance_id=0, dpid=dpid, time=now,
                message=FlowRemoved(
                    dpid=dpid, match=matches[flow], priority=10,
                    duration_sec=now - started[flow], packet_count=count,
                    byte_count=count * int(packet_size[flow]),
                ),
            ))
            packets[flow] = 0
            started[flow] = now
            units += 1
        else:
            entries = []
            for column in range(STATS_ENTRIES):
                flow = int(flows[index, column])
                packets[flow] += growth[index, column]
                entries.append(FlowStatsEntry(
                    match=matches[flow], priority=10,
                    duration_sec=now - started[flow],
                    packet_count=int(packets[flow]),
                    byte_count=int(packets[flow] * packet_size[flow]),
                ))
            events.append(StatsEvent(
                instance_id=0, dpid=dpid, time=now, athena_marked=True,
                message=FlowStatsReply(dpid=dpid, entries=entries),
            ))
            units += STATS_ENTRIES
    return events, units


def train_learner(seed: int):
    """An OnlineGaussianNB warmed on the labelled DDoS dataset."""
    from repro.ml.online import OnlineGaussianNB
    from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec

    learner = OnlineGaussianNB()
    for doc in DDoSDatasetGenerator(DDoSDatasetSpec(scale=0.0005, seed=seed)).generate():
        learner.partial_fit(
            [doc.get(name, 0.0) for name in NB_FEATURES], doc.get("label", 0)
        )
    return learner


class StreamIngest:
    min_rounds = 2
    setup_per_round = False

    def setup(self, seed: int) -> _State:
        events, units = build_events(seed)
        return _State(events=events, offered_units=units,
                      learner=train_learner(seed))

    def round(self, state: _State, recorder, outcome) -> None:
        from repro.controller.events import EventBus
        from repro.ml.online import SlidingWindowDetector
        from repro.streaming import StreamingDetectorManager, StreamingPipeline

        bus = EventBus()
        pipeline = StreamingPipeline()
        detectors = StreamingDetectorManager()
        detectors.register_detector(
            "fanout",
            SlidingWindowDetector(column=0, threshold=64.0, window=16, min_hits=4),
            features=["SRC_FLOW_FANOUT"],
            cooldown=1.0,
        )
        detectors.register_detector(
            "ddos_nb", state.learner, features=NB_FEATURES,
            cooldown=1.0, absorb=False, kinds=SAMPLED_KINDS,
        )
        pipeline.add_sink(detectors.on_event)
        pipeline.attach_instance(0, bus)
        for event in state.events:
            recorder.start()
            bus.publish(event)
            recorder.stop()
        folded = pipeline.events_processed
        outcome.units += folded
        outcome.attempted += state.offered_units
        outcome.failed += state.offered_units - folded
        outcome.check(bool(detectors.alerts), "the stream raised no alerts")
        state.digests.append(detectors.alert_stream_digest())

    def finish(self, state: _State, outcome) -> None:
        outcome.check(
            len(set(state.digests)) == 1,
            "same-seed replays produced different alert streams",
        )

    def named_metrics(self, end_to_end, outcome) -> Dict[str, float]:
        return {
            "stream_events_per_s": end_to_end["throughput_per_s"],
            "stream_p99_us": end_to_end["latency_p99_ms"] * 1e3,
        }
