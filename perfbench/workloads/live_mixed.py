"""``live_mixed``: live detection on the paper's Fig 7 network.

The stack is the paper's enterprise topology (18 switches, 3 controller
instances) with Athena polling every sim second, a K-Means online
validator trained offline during set-up, a batch ``poll_round`` every 2
sim seconds, and a streaming fan-out detector.  The first alert naming a
source blocks it through ``Reactor(BlockReaction)``.

Traffic is seeded and scheduled on the sim clock before the run (open
loop): benign bidirectional flows between random host pairs, a 200-port
scan and a 64-byte flood from a host with no benign traffic.  One round is
one episode: a fresh stack driven to the horizon one sim second at a time;
each sim second is a timed operation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Sim seconds per episode, and when both attacks start.
HORIZON = 12.0
ATTACK_START = 5.0
BENIGN_FLOWS = 100
SCAN_PORTS = 200
FLOOD_PPS = 150.0
#: Latest acceptable sim seconds from attack start to the first alert
#: naming the attacker (the larger of scan and flood).
MAX_TIME_TO_DETECT_S = 3.0
#: Features both the offline dataset and live records carry.
LIVE_FEATURES = [
    "FLOW_PACKET_COUNT",
    "FLOW_BYTE_PER_PACKET",
    "FLOW_PACKET_PER_DURATION",
    "PAIR_FLOW",
]
#: Live samples the K-Means validator and the batch rounds examine.  Edge
#: switches (dpid >= 11) see both directions of every flow they carry,
#: which core switches on asymmetric shortest paths do not, so PAIR_FLOW
#: is only meaningful there; young and idle flows are left out.
LIVE_QUERY = (
    "feature_scope == flow && FLOW_PACKET_COUNT > 10 && "
    "FLOW_PACKET_PER_DURATION > 4 && switch_id >= 11"
)
FANOUT_THRESHOLD = 24.0


@dataclass
class LiveStack:
    """One seeded live deployment with its traffic already scheduled."""

    network: Any
    athena: Any
    packets_offered: int
    attackers: Dict[str, str]  # role -> ip
    #: (sim_time, detector, source) of every alert, in order.
    alerts: List[Tuple[float, str, Optional[str]]] = field(default_factory=list)
    #: source ip -> mitigation rules its block installed.
    blocked: Dict[str, int] = field(default_factory=dict)

    @property
    def sim(self):
        return self.network.sim

    def time_to_detect(self) -> Optional[float]:
        """Sim seconds from attack start until every attacker was named."""
        first: Dict[str, float] = {}
        for when, _detector, source in self.alerts:
            first.setdefault(source, when)
        times = [first.get(ip) for ip in self.attackers.values()]
        if any(t is None for t in times):
            return None
        return max(times) - ATTACK_START


def build_live_stack(seed: int) -> LiveStack:
    """Build, train and schedule one live deployment; nothing has run."""
    from repro.controller import ControllerCluster, ReactiveForwarding
    from repro.core import AthenaDeployment, BlockReaction, GenerateQuery
    from repro.core.algorithm import GenerateAlgorithm
    from repro.core.preprocessor import GeneratePreprocessor
    from repro.dataplane.topologies import enterprise_topology
    from repro.ml.online import SlidingWindowDetector
    from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec
    from repro.workloads.flows import FlowSpec, TrafficSchedule

    topo = enterprise_topology()
    network = topo.network
    cluster = ControllerCluster(network, n_instances=3)
    cluster.adopt_domains(topo.domains)
    cluster.start(poll=False)
    ReactiveForwarding().activate(cluster)
    athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
    athena.start()

    documents = DDoSDatasetGenerator(
        DDoSDatasetSpec(scale=0.0005, seed=seed)
    ).generate()
    model = athena.detector_manager.generate_detection_model(
        GenerateQuery(),
        GeneratePreprocessor(
            normalization="minmax", marking="label", features=LIVE_FEATURES
        ),
        GenerateAlgorithm("kmeans", k=6, max_iterations=15, runs=2, seed=seed),
        documents=documents,
    )

    hosts = sorted(network.hosts, key=lambda name: int(name[1:]))
    scanner, flooder, victim = hosts[0], hosts[1], hosts[-1]
    stack = LiveStack(
        network=network,
        athena=athena,
        packets_offered=0,
        attackers={
            "scanner": network.hosts[scanner].ip,
            "flooder": network.hosts[flooder].ip,
        },
    )

    def alert(when: float, detector: str, source: Optional[str]) -> None:
        stack.alerts.append((round(when, 9), detector, source))
        if source and source not in stack.blocked:
            stack.blocked[source] = athena.northbound.reactor(
                None, BlockReaction(target_ips=[source])
            )

    def on_verdict(feature, verdict: bool) -> None:
        if verdict:
            alert(network.sim.now, "kmeans", feature.indicators.get("ip_src"))

    live_query = GenerateQuery(LIVE_QUERY)
    athena.northbound.add_online_validator(
        model.preprocessor, model, on_verdict, query=live_query
    )
    network.sim.every(
        2.0,
        lambda: athena.detector_manager.poll_round(
            live_query, model.preprocessor, model
        ),
    )
    runtime = athena.enable_streaming()
    runtime.detectors.register_detector(
        "fanout",
        SlidingWindowDetector(
            column=0, threshold=FANOUT_THRESHOLD, window=16, min_hits=1
        ),
        features=["SRC_FLOW_FANOUT"],
        cooldown=1.0,
    )
    streamed = runtime.detectors.alerts
    seen = [0]

    def on_stream_event(_event) -> None:
        while seen[0] < len(streamed):
            record = streamed[seen[0]]
            seen[0] += 1
            alert(record["sim_time"], record["detector"], record["source"])

    runtime.pipeline.add_sink(on_stream_event)

    schedule = TrafficSchedule(network)
    schedule.prime_arp()
    rng = random.Random(seed)
    benign = [h for h in hosts if h not in (scanner, flooder)]
    # Benign flows start evenly over the horizon with durations cycling
    # through 2-8 s, so the number of live flows at any sim time is the
    # same for every seed; the seed picks endpoints, ports, rates and sizes.
    for index in range(BENIGN_FLOWS):
        src, dst = rng.sample(benign, 2)
        schedule.add_flow(FlowSpec(
            src_host=src, dst_host=dst, sport=30000 + index,
            dport=rng.choice([22, 53, 80, 443]),
            rate_pps=rng.uniform(2.0, 8.0),
            packet_size=rng.choice([600, 900, 1200]),
            reverse_packet_size=rng.choice([500, 800, 1100]),
            start=0.5 + (HORIZON - 4.5) * index / BENIGN_FLOWS,
            duration=2.0 + 6.0 * (index * 37 % BENIGN_FLOWS) / BENIGN_FLOWS,
            bidirectional=True,
        ))
    for port in range(SCAN_PORTS):
        schedule.add_flow(FlowSpec(
            src_host=scanner, dst_host=victim, sport=52000 + port,
            dport=1000 + port, packet_size=64, rate_pps=4.0,
            start=ATTACK_START + port * 0.02, duration=1.0,
        ))
    schedule.add_flow(FlowSpec(
        src_host=flooder, dst_host=victim, sport=50001, dport=80,
        packet_size=64, rate_pps=FLOOD_PPS, start=ATTACK_START,
        duration=HORIZON - ATTACK_START,
    ))
    stack.packets_offered = schedule.packets_scheduled
    return stack


class LiveMixed:
    #: Three episodes give three set-ups and two same-seed comparisons.
    min_rounds = 3
    setup_per_round = True

    def __init__(self) -> None:
        self.alert_lists: List[List[Tuple[float, str, Optional[str]]]] = []
        self.detect_times: List[Optional[float]] = []

    def setup(self, seed: int) -> LiveStack:
        return build_live_stack(seed)

    def round(self, stack: LiveStack, recorder, outcome) -> None:
        sim = stack.sim
        while sim.now < HORIZON:
            recorder.start()
            sim.run(until=min(HORIZON, sim.now + 1.0))
            recorder.stop()
        feature_manager = stack.athena.feature_manager
        published = feature_manager.features_published
        stored = feature_manager.count_features()
        outcome.units += stack.packets_offered
        outcome.attempted += published
        outcome.failed += published - stored
        for role, ip in sorted(stack.attackers.items()):
            outcome.check(
                stack.blocked.get(ip, 0) > 0, f"{role} {ip} was not blocked"
            )
        detect = stack.time_to_detect()
        outcome.check(
            detect is not None and detect <= MAX_TIME_TO_DETECT_S,
            f"time to detect {detect} sim-s exceeds {MAX_TIME_TO_DETECT_S}",
        )
        self.detect_times.append(detect)
        self.alert_lists.append(list(stack.alerts))
        outcome.gauges["feature_manager.pending_writes"] = (
            feature_manager.pending_writes
        )

    def finish(self, stack: LiveStack, outcome) -> None:
        outcome.check(
            all(alerts == self.alert_lists[0] for alerts in self.alert_lists),
            "same-seed episodes produced different alert lists",
        )
        outcome.named["time_to_detect_s"] = self.detect_times[-1]

    def named_metrics(self, end_to_end, outcome) -> Dict[str, float]:
        return {
            "live_pkts_per_s": end_to_end["throughput_per_s"],
            "time_to_detect_s": outcome.named["time_to_detect_s"],
        }
