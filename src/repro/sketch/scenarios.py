"""Detection scenarios fed from sketch features alone (docs/SKETCH.md).

Runs the :mod:`repro.workloads.sketchscale` attack streams through a
feature state (sketch or exact), publishes the resulting per-window
``SKETCH_*`` documents into a sharded feature store, and drives the real
detector-manager plumbing — query validation against the catalog,
preprocessing with label marking, a calibrated threshold model — to
produce per-(switch, window) alerts.

The same entry point runs both paths, which is how the equivalence tests
(and ``benchmarks/bench_sketch.py``) hold sketch-path recall within a
fixed tolerance of exact-path recall, and how the determinism tests
digest the alert stream and sketch serialisation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# Recall on sketch features must come within RECALL_TOLERANCE of the
# exact path: the same allowance the live scenarios use.
from repro.scenarios import RECALL_TOLERANCE  # noqa: F401
from repro.sketch.features import ExactWindowState, SketchFeatureState
from repro.workloads.sketchscale import SketchScaleGenerator, SketchScaleSpec

#: The single discriminating feature each scenario thresholds on; the
#: remaining names ride along so the documents exercise the full scope.
SCENARIO_FEATURES: Dict[str, str] = {
    "ddos": "SKETCH_UNIQUE_SRC_EST",
    "portscan": "SKETCH_UNIQUE_DST_PORT_EST",
}


@dataclass
class SketchScenarioOutcome:
    """One scenario run: alerts, quality, and determinism digests."""

    scenario: str
    seed: int
    path: str  # "sketch" | "exact"
    n_documents: int
    n_attack_cells: int
    recall: float
    false_alarm_rate: float
    threshold: float
    alerts: List[Tuple[int, int]] = field(default_factory=list)  # (dpid, window)
    #: sha256 over the canonical alert stream (determinism contract).
    alert_digest: str = ""
    #: sha256 over the final sketch-state serialisation ("" on the exact path).
    state_digest: str = ""
    #: Resident bytes of the feature state after the full stream.
    state_nbytes: int = 0


def _alert_digest(alerts: List[Tuple[int, int]]) -> str:
    canonical = json.dumps(sorted(alerts), separators=(",", ":")).encode()
    return hashlib.sha256(canonical).hexdigest()


def build_documents(
    spec: SketchScaleSpec, use_sketch: bool = True
) -> Tuple[List[Dict[str, float]], object]:
    """Run the workload through a fresh state; returns (documents, state)."""
    generator = SketchScaleGenerator(spec)
    state = (
        SketchFeatureState(seed=spec.seed)
        if use_sketch
        else ExactWindowState(seed=spec.seed)
    )
    return generator.run(state), state


def detect(
    documents: List[Dict[str, float]], scenario: str, n_shards: int = 3
) -> Tuple[List[Tuple[int, int]], float, float, float]:
    """Threshold detection over sketch documents via the manager stack.

    Publishes the documents into a sharded store, generates a calibrated
    threshold model on the scenario's discriminating feature (the bound
    is learned from benign-marked rows — no labels are consulted at
    prediction time), and returns ``(alerts, recall, false_alarm_rate,
    threshold)``.
    """
    from repro.compute import ComputeCluster
    from repro.core.algorithm import GenerateAlgorithm
    from repro.core.detector_manager import DetectorManager
    from repro.core.feature_manager import FeatureManager
    from repro.core.preprocessor import GeneratePreprocessor
    from repro.core.query import GenerateQuery
    from repro.core.southbound import AttackDetector
    from repro.distdb import DatabaseCluster

    feature = SCENARIO_FEATURES[scenario]
    manager = FeatureManager(DatabaseCluster(n_shards=n_shards, replication=2))
    manager.publish_documents(documents)
    detector = DetectorManager(manager, AttackDetector(ComputeCluster(2)))
    query = GenerateQuery("feature_scope == sketch && SKETCH_OBSERVATIONS > 0")
    preprocessor = GeneratePreprocessor(
        normalization=None, marking="label", features=[feature]
    )
    algorithm = GenerateAlgorithm("threshold", column=0)
    model = detector.generate_detection_model(query, preprocessor, algorithm)
    summary = detector.validate_features(query, preprocessor, model)

    stored = manager.request_features(query)
    matrix, _, kept = model.preprocessor.transform(stored)
    predictions = model.estimator.predict(matrix)
    alerts = sorted(
        (int(doc["switch_id"]), int(doc["timestamp"]))
        for doc, verdict in zip(kept, predictions)
        if verdict
    )
    return (
        alerts,
        summary.detection_rate,
        summary.false_alarm_rate,
        float(model.estimator.threshold),
    )


def run_sketch_scenario(
    spec: Optional[SketchScaleSpec] = None,
    scenario: str = "ddos",
    use_sketch: bool = True,
    n_shards: int = 3,
) -> SketchScenarioOutcome:
    """Full pipeline: workload → feature state → store → threshold alerts."""
    if spec is None:
        spec = SketchScaleSpec(scenario=scenario)
    documents, state = build_documents(spec, use_sketch=use_sketch)
    alerts, recall, false_alarms, threshold = detect(
        documents, spec.scenario, n_shards=n_shards
    )
    state_digest = ""
    if isinstance(state, SketchFeatureState):
        state_digest = hashlib.sha256(state.to_bytes()).hexdigest()
    return SketchScenarioOutcome(
        scenario=spec.scenario,
        seed=spec.seed,
        path="sketch" if use_sketch else "exact",
        n_documents=len(documents),
        n_attack_cells=sum(1 for d in documents if d.get("label")),
        recall=recall,
        false_alarm_rate=false_alarms,
        threshold=threshold,
        alerts=alerts,
        alert_digest=_alert_digest(alerts),
        state_digest=state_digest,
        state_nbytes=state.nbytes(),
    )


def sharded_documents(
    spec: SketchScaleSpec, n_shards: int = 3
) -> Tuple[List[Dict[str, float]], List[SketchFeatureState]]:
    """Build per-shard sketch states (events partitioned by flow id) and
    the documents of their merge.

    Models the distributed deployment: each shard sketches only its
    partition of the stream, and a combiner merges the shard states
    before rolling windows.  Used by the chaos tests to show that losing
    a shard's state and recovering it from its serialised replica yields
    the same merged sketch.
    """
    generator = SketchScaleGenerator(spec)
    shards = [SketchFeatureState(seed=spec.seed) for _ in range(n_shards)]
    documents: List[Dict[str, float]] = []
    current_window = 0

    def roll(window: int) -> None:
        combined = SketchFeatureState(seed=spec.seed)
        for shard in shards:
            combined.merge(SketchFeatureState.from_bytes(shard.to_bytes()))
        for dpid in range(1, spec.n_switches + 1):
            fields = combined.roll(dpid)
            if not fields["SKETCH_OBSERVATIONS"]:
                continue
            document: Dict[str, float] = {
                "feature_scope": "sketch",
                "switch_id": dpid,
                "instance_id": 0,
                "timestamp": float(window),
                "label": generator.label(dpid, window),
            }
            document.update(fields)
            documents.append(document)
        for shard in shards:
            for dpid in range(1, spec.n_switches + 1):
                shard.roll(dpid)

    for chunk in generator.chunks():
        if chunk.window != current_window:
            roll(current_window)
            current_window = chunk.window
        for i in range(len(chunk)):
            shard = shards[int(chunk.flow_id[i]) % n_shards]
            shard.observe(
                int(chunk.dpid[i]),
                int(chunk.flow_id[i]),
                int(chunk.src[i]),
                int(chunk.dst_port[i]),
                packets=int(chunk.packets[i]),
                bytes_=int(chunk.bytes_[i]),
            )
    roll(current_window)
    return documents, shards
