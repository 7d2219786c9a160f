"""Live detection scenarios on the simulated network.

Every scenario runs on one stack (:func:`build_stack`).  A
:class:`Recipe` is one attack: its ground-truth attacker, its traffic,
its batch detection and its streaming detector.  :func:`run_scenario`
runs a recipe, optionally under a fault plan (docs/CHAOS.md) and with
the streaming path beside the batch one (docs/STREAMING.md).
:func:`build_demo_stack` is the ``ddos`` stack with its traffic
scheduled but not yet run, for the northbound serving tier.

Determinism contract: the same ``(scenario, seed, plan, streaming)``
gives byte-identical ``snapshot_json`` and ``alert_stream_json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.chaos.controller import ChaosController
from repro.chaos.plan import FaultPlan
from repro.errors import AthenaError

#: The most recall may drop under a canned fault plan (against the
#: no-fault baseline) and on the streaming path (against the batch path).
RECALL_TOLERANCE = 0.25

SCENARIOS = ("portscan", "ddos")

#: The live batch population: flow features that saw at least one packet.
LIVE_QUERY = "feature_scope == flow && FLOW_PACKET_COUNT > 0"

#: Stream event kinds whose records match :data:`LIVE_QUERY`'s population
#: (not the zero-count PACKET_IN observations).
_SAMPLED_KINDS = ("flow_stats", "flow_removed")

_DDOS_FEATURES = [
    "FLOW_PACKET_COUNT",
    "FLOW_BYTE_PER_PACKET",
    "FLOW_PACKET_PER_DURATION",
    "PAIR_FLOW",
]

Verdicts = List[Tuple[Optional[str], Any]]


@dataclass
class ScenarioStack:
    """One scenario deployment; ``verdicts`` collects online verdicts."""

    topo: Any
    athena: Any
    schedule: Any
    verdicts: Verdicts = field(default_factory=list)

    @property
    def sim(self):
        return self.topo.network.sim

    def ip(self, host: str) -> str:
        return self.topo.network.hosts[host].ip

    def run(self, until: float) -> None:
        """Advance the sim clock (traffic, polling, detection rounds)."""
        self.sim.run(until=until)

    def enforce_block(self, ip: Optional[str] = None) -> None:
        """Block one host so ``/api/alerts`` has a mitigation on record."""
        from repro.core import BlockReaction

        target = ip or self.ip("h2")
        self.athena.northbound.reactor(None, BlockReaction(target_ips=[target]))


def build_stack() -> ScenarioStack:
    """3 switches in a line, 2 controller instances, reactive forwarding,
    an Athena deployment (3 DB shards) and ARP primed."""
    from repro.controller import ControllerCluster, ReactiveForwarding
    from repro.core import AthenaDeployment
    from repro.dataplane.topologies import linear_topology
    from repro.workloads.flows import TrafficSchedule

    topo = linear_topology(n_switches=3, hosts_per_switch=2)
    cluster = ControllerCluster(topo.network, n_instances=2)
    cluster.adopt_all()
    cluster.start(poll=False)
    ReactiveForwarding().activate(cluster)
    athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
    athena.start()
    schedule = TrafficSchedule(topo.network)
    schedule.prime_arp()
    return ScenarioStack(topo=topo, athena=athena, schedule=schedule)


@dataclass(frozen=True)
class Recipe:
    """One attack.  ``arm(stack, horizon, streaming)`` schedules traffic
    and wires detection; ``batch_verdicts(stack)`` gives the batch path's
    ``(ip_src, verdict)`` pairs after the run.  The attacker host must be
    flagged, the bystander host (if any) must not."""

    attacker: str
    bystander: Optional[str]
    arm: Callable[[ScenarioStack, float, bool], None]
    batch_verdicts: Callable[[ScenarioStack], Verdicts]


# -- port scan: threshold on SRC_FLOW_FANOUT ---------------------------------


def portscan_traffic(stack: ScenarioStack) -> None:
    """A 30-port scan from h1 plus one benign bidirectional flow from h2.

    The scan crosses both inter-switch links (h1 on s1 -> h5 on s3), so
    link faults sit right on the attack path.
    """
    from repro.workloads.flows import FlowSpec

    for port in range(30):
        stack.schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h5", sport=52000 + port,
                     dport=1000 + port, packet_size=64, rate_pps=4.0,
                     start=1.0 + port * 0.05, duration=1.5)
        )
    stack.schedule.add_flow(
        FlowSpec(src_host="h2", dst_host="h6", sport=33000, dport=80,
                 rate_pps=10.0, start=1.0, duration=6.0, bidirectional=True)
    )


def _arm_portscan(stack: ScenarioStack, horizon: float, streaming: bool):
    from repro.ml.online import SlidingWindowDetector

    if streaming:
        stack.athena.enable_streaming().detectors.register_detector(
            "portscan_fanout",
            SlidingWindowDetector(column=0, threshold=10.0, window=16,
                                  min_hits=1),
            features=["SRC_FLOW_FANOUT"],
            cooldown=0.0,
        )
    portscan_traffic(stack)


def _portscan_verdicts(stack: ScenarioStack) -> Verdicts:
    """One batch round over the stored flow features."""
    from repro.core import GenerateQuery
    from repro.core.algorithm import GenerateAlgorithm
    from repro.core.preprocessor import GeneratePreprocessor

    query = GenerateQuery(LIVE_QUERY)
    model = stack.athena.northbound.GenerateDetectionModel(
        query,
        GeneratePreprocessor(normalization=None, features=["SRC_FLOW_FANOUT"]),
        GenerateAlgorithm("threshold", column=0, threshold=10.0),
    )
    documents = stack.athena.northbound.RequestFeatures(query)
    matrix, _, docs = model.preprocessor.transform(documents)
    predictions = model.estimator.predict(matrix)
    return [(doc.get("ip_src"), v) for doc, v in zip(docs, predictions)]


# -- DDoS: K-Means trained offline, validated online per feature -------------


def arm_ddos(
    stack: ScenarioStack,
    flood_s: float,
    benign_s: float,
    scale: float = 0.0005,
    kmeans_seed: int = 1,
    attack_rate_pps: float = 150.0,
    streaming: bool = False,
) -> None:
    """Train the DDoS model, wire its live validation, schedule traffic.

    The online validator appends to ``stack.verdicts``; a batch round
    every 2 sim seconds exercises the skip-and-flag degradation path
    while the store fails underneath.  With ``streaming``, an online NB
    warmed on the same labelled dataset (raw features: NB normalises
    through its own per-class statistics) and then frozen
    (``absorb=False``) scores the live flow events.
    """
    from repro.core import GenerateQuery
    from repro.core.algorithm import GenerateAlgorithm
    from repro.core.preprocessor import GeneratePreprocessor
    from repro.ml.online import OnlineGaussianNB
    from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec
    from repro.workloads.flows import FlowSpec

    athena = stack.athena
    documents = DDoSDatasetGenerator(DDoSDatasetSpec(scale=scale)).generate()
    if streaming:
        learner = OnlineGaussianNB()
        for doc in documents:
            learner.partial_fit(
                [doc.get(name, 0.0) for name in _DDOS_FEATURES],
                doc.get("label", 0),
            )
        athena.enable_streaming().detectors.register_detector(
            "ddos_online_nb", learner, features=_DDOS_FEATURES,
            cooldown=0.0, absorb=False, kinds=_SAMPLED_KINDS,
        )
    model = athena.detector_manager.generate_detection_model(
        GenerateQuery(),
        GeneratePreprocessor(
            normalization="minmax", marking="label", features=_DDOS_FEATURES
        ),
        GenerateAlgorithm("kmeans", k=6, max_iterations=15, runs=2,
                          seed=kmeans_seed),
        documents=documents,
    )
    live_query = GenerateQuery(LIVE_QUERY)
    athena.northbound.add_online_validator(
        model.preprocessor,
        model,
        lambda feature, verdict: stack.verdicts.append(
            (feature.indicators.get("ip_src"), verdict)
        ),
        query=live_query,
    )
    stack.sim.every(
        2.0,
        lambda: athena.detector_manager.poll_round(
            live_query, model.preprocessor, model
        ),
    )
    # One-way small-packet flood (h2 on s1 -> h6 on s3) plus benign
    # paired traffic on the same path.
    stack.schedule.add_flow(
        FlowSpec(src_host="h2", dst_host="h6", sport=50001, dport=80,
                 packet_size=64, rate_pps=attack_rate_pps, start=1.0,
                 duration=flood_s)
    )
    stack.schedule.add_flow(
        FlowSpec(src_host="h1", dst_host="h5", rate_pps=10.0, start=1.0,
                 duration=benign_s, bidirectional=True)
    )


def _arm_ddos(stack: ScenarioStack, horizon: float, streaming: bool):
    arm_ddos(stack, flood_s=max(6.0, horizon - 4.0), benign_s=5.0,
             streaming=streaming)


RECIPES: Dict[str, Recipe] = {
    "portscan": Recipe(attacker="h1", bystander="h2", arm=_arm_portscan,
                       batch_verdicts=_portscan_verdicts),
    "ddos": Recipe(attacker="h2", bystander=None, arm=_arm_ddos,
                   batch_verdicts=lambda stack: stack.verdicts),
}


def build_demo_stack(
    scale: float = 0.0005,
    horizon: float = 8.0,
    seed: int = 1,
    attack_rate_pps: float = 150.0,
) -> ScenarioStack:
    """The ``ddos`` deployment for serving and load testing.

    Traffic runs through ``horizon`` sim seconds; ``seed`` seeds the
    K-Means training.  Nothing has run yet: configure telemetry, then
    call ``stack.run(until=...)``.
    """
    stack = build_stack()
    arm_ddos(stack, flood_s=max(6.0, horizon - 2.0),
             benign_s=max(4.0, horizon - 3.0), scale=scale,
             kmeans_seed=seed, attack_rate_pps=attack_rate_pps)
    return stack


# -- the runner ---------------------------------------------------------------


@dataclass
class ScenarioResult:
    """One run: batch detection, faults, telemetry and, when run with
    ``streaming=True``, the streaming path's detection and alert stream."""

    scenario: str
    plan: str
    seed: int
    detected: bool
    recall: float
    attacker_ip: str
    flagged_ips: List[str]
    faults_applied: int = 0
    faults_skipped: int = 0
    recoveries: int = 0
    degraded_rounds: int = 0
    rounds_recovered: int = 0
    pending_writes: int = 0
    chaos_log: List[str] = field(default_factory=list)
    snapshot_json: str = ""
    streaming_detected: bool = False
    streaming_recall: float = 0.0
    streaming_flagged: List[str] = field(default_factory=list)
    events_processed: int = 0
    alerts_emitted: int = 0
    alert_stream_json: str = ""
    alert_stream_digest: str = ""
    detector_summaries: List[Dict[str, Any]] = field(default_factory=list)


def _recall(verdicts: Verdicts, attacker_ip: str) -> float:
    attacker = [v for ip, v in verdicts if ip == attacker_ip]
    return sum(1 for v in attacker if v) / len(attacker) if attacker else 0.0


def run_scenario(
    scenario: str,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    streaming: bool = False,
    duration: Optional[float] = None,
) -> ScenarioResult:
    """Run one scenario, optionally under a fault plan and streaming.

    ``seed`` seeds the fault plan.  Telemetry is force-enabled for the run
    (fresh facade, so instruments start from zero) and reset afterwards.
    """
    recipe = RECIPES.get(scenario)
    if recipe is None:
        raise AthenaError(
            f"unknown scenario {scenario!r}; known: {', '.join(SCENARIOS)}"
        )
    horizon = duration
    if horizon is None:
        horizon = 12.0 if plan is None else max(12.0, plan.horizon() + 4.0)
    tel = telemetry.configure(enabled=True)
    try:
        stack = build_stack()
        athena = stack.athena
        chaos = None
        if plan is not None:
            chaos = ChaosController(athena, plan, seed=seed)
            chaos.arm()
        recipe.arm(stack, horizon, streaming)
        sampled: List[Tuple[Optional[str], float, str]] = []

        def record(event):
            if (event.kind in _SAMPLED_KINDS
                    and event.fields.get("FLOW_PACKET_COUNT", 0.0) > 0):
                sampled.append(
                    (event.indicators.get("ip_src"), event.time, event.kind)
                )

        if streaming:
            athena.streaming.pipeline.add_sink(record)
        stack.run(until=horizon)

        attacker_ip = stack.ip(recipe.attacker)
        bystander_ip = stack.ip(recipe.bystander) if recipe.bystander else None

        def caught(flagged) -> bool:
            return attacker_ip in flagged and bystander_ip not in flagged

        verdicts = recipe.batch_verdicts(stack)
        flagged = sorted({ip for ip, v in verdicts if v and ip})
        result = ScenarioResult(
            scenario=scenario,
            plan=plan.name if plan is not None else "",
            seed=seed,
            detected=caught(flagged),
            recall=_recall(verdicts, attacker_ip),
            attacker_ip=attacker_ip,
            flagged_ips=flagged,
            degraded_rounds=athena.detector_manager.degraded_rounds,
            rounds_recovered=athena.detector_manager.rounds_recovered,
            pending_writes=athena.feature_manager.pending_writes,
        )
        if chaos is not None:
            result.faults_applied = chaos.faults_injected
            result.faults_skipped = chaos.faults_skipped
            result.recoveries = chaos.recoveries
            result.chaos_log = list(chaos.log)
        if streaming:
            # Cooldown 0 gives one alert per positive verdict, so an alert
            # at a sampled event's sim time is an exact per-event join.
            detectors = athena.streaming.detectors
            alerted = {
                (alert["source"], alert["sim_time"], alert["kind"])
                for alert in detectors.alerts
            }
            result.streaming_recall = _recall(
                [(key[0], key in alerted) for key in sampled], attacker_ip
            )
            result.streaming_flagged = [
                str(source) for source in detectors.flagged_sources()
            ]
            result.streaming_detected = caught(result.streaming_flagged)
            result.events_processed = athena.streaming.pipeline.events_processed
            result.alerts_emitted = len(detectors.alerts)
            result.alert_stream_json = detectors.alert_stream_json()
            result.alert_stream_digest = detectors.alert_stream_digest()
            result.detector_summaries = detectors.summaries()
        result.snapshot_json = telemetry.to_json(
            tel.snapshot(deterministic_only=True)
        )
        return result
    finally:
        telemetry.reset_telemetry()
