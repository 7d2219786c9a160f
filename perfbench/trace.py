"""Span tracing for the benchmark's traced mode.

The traced run wraps the public entry points of each layer of the
program with spans, from here — the program itself is not modified.  A
span records its name, start, end and parent; a layer's *self time* is
the span's duration minus the time its child spans cover, so the self
times of every span under one root add up to the root's duration.

The harness opens one root span per timed operation (bucket
:data:`UNATTRIBUTED`).  Wrapped calls made outside any root span — set-up,
checks — pass straight through and are not recorded.  Time inside an
operation that no layer span covers stays with the root span and is
reported as ``unattributed_ratio``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Bucket of the harness's root span: operation time no layer span covers.
UNATTRIBUTED = "unattributed"

#: The per-layer metrics of a traced run, in report order, with their
#: units and how each is derived: ``self`` sums span self time into the
#: metric's own bucket, ``count`` sums what the probes count, ``gauge`` is
#: a value the workload reads at the end, ``ratio`` is computed in
#: :func:`layer_metrics`.  Self times and counts are per measured round.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("distdb.insert_docs", "count/round", "count"),
    ("distdb.insert_self_s", "s/round", "self"),
    ("distdb.find_calls", "count/round", "count"),
    ("distdb.find_docs", "count/round", "count"),
    ("distdb.find_self_s", "s/round", "self"),
    ("feature_manager.published", "count/round", "count"),
    ("feature_manager.delivered", "count/round", "count"),
    ("feature_manager.pending_writes", "count", "gauge"),
    ("feature_manager.self_s", "s/round", "self"),
    ("preprocessor.rows", "count/round", "count"),
    ("preprocessor.self_s", "s/round", "self"),
    ("compute.jobs", "count/round", "count"),
    ("compute.tasks", "count/round", "count"),
    ("compute.self_s", "s/round", "self"),
    ("ml.fit_self_s", "s/round", "self"),
    ("ml.predict_rows", "count/round", "count"),
    ("ml.predict_self_s", "s/round", "self"),
    ("simkernel.events", "count/round", "count"),
    ("simkernel.self_s", "s/round", "self"),
    ("dataplane.packets", "count/round", "count"),
    ("dataplane.flowmods", "count/round", "count"),
    ("dataplane.self_s", "s/round", "self"),
    ("controller.msgs_from_switch", "count/round", "count"),
    ("controller.msgs_to_switch", "count/round", "count"),
    ("controller.self_s", "s/round", "self"),
    ("southbound.polls", "count/round", "count"),
    ("southbound.self_s", "s/round", "self"),
    ("generator.records", "count/round", "count"),
    ("generator.self_s", "s/round", "self"),
    ("detector.poll_rounds", "count/round", "count"),
    ("detector.degraded_rounds", "count/round", "count"),
    ("detector.online_verdicts", "count/round", "count"),
    ("detector.self_s", "s/round", "self"),
    ("reaction.enforced", "count/round", "count"),
    ("reaction.rules", "count/round", "count"),
    ("reaction.self_s", "s/round", "self"),
    ("streaming.events", "count/round", "count"),
    ("streaming.alerts", "count/round", "count"),
    ("streaming.fold_self_s", "s/round", "self"),
    ("ml.online_scored", "count/round", "count"),
    ("ml.online_self_s", "s/round", "self"),
    ("northbound.requests", "count/round", "count"),
    ("northbound.cache_hit_ratio", "ratio", "ratio"),
    ("northbound.hit_self_s", "s/round", "self"),
    ("northbound.miss_self_s", "s/round", "self"),
    ("unattributed_ratio", "ratio", "ratio"),
    ("trace_overhead_ratio", "ratio", "ratio"),
)

# Frame slots of an open span.
_NAME, _BUCKET, _START, _CHILD, _INDEX = range(5)


class Tracer:
    """In-memory span recorder with per-bucket self time and counters."""

    def __init__(
        self,
        max_spans: int = 200_000,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.stack: List[list] = []
        #: bucket -> summed self time (ns).
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: counter name -> summed count.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Summed duration of root spans (ns).
        self.root_ns = 0
        #: Recorded spans ``(index, parent_index, name, start_ns, end_ns)``;
        #: ``parent_index`` is -1 for a root.  Spans past ``max_spans`` are
        #: still aggregated but not kept.
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self.dropped = 0
        self._next_index = 0

    def push(self, name: str, bucket: str) -> list:
        frame = [name, bucket, 0, 0, self._next_index]
        self._next_index += 1
        self.stack.append(frame)
        frame[_START] = self.clock()
        return frame

    def pop(self) -> int:
        """Close the innermost span; returns its duration (ns)."""
        end = self.clock()
        frame = self.stack.pop()
        duration = end - frame[_START]
        self.self_ns[frame[_BUCKET]] += duration - frame[_CHILD]
        if self.stack:
            parent = self.stack[-1]
            parent[_CHILD] += duration
            parent_index = parent[_INDEX]
        else:
            self.root_ns += duration
            parent_index = -1
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (frame[_INDEX], parent_index, frame[_NAME], frame[_START], end)
            )
        else:
            self.dropped += 1
        return duration

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def set_bucket(self, bucket: str) -> None:
        """Re-file the innermost open span's self time under ``bucket``."""
        self.stack[-1][_BUCKET] = bucket

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as CSV (one row per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "parent", "name", "start_ns", "end_ns"])
            writer.writerows(self.spans)


# -- probes -------------------------------------------------------------------

#: ``after(tracer, args, kwargs, result, before)`` runs while the span is
#: still open; it counts work and may re-file the span via ``set_bucket``.
AfterHook = Callable[[Tracer, tuple, dict, Any, Any], None]


@dataclass(frozen=True)
class Probe:
    """One wrapped method: the span it opens and what it counts."""

    owner: type
    method: str
    bucket: str
    after: Optional[AfterHook] = None
    #: ``before(args, kwargs)`` — state the ``after`` hook compares against.
    before: Optional[Callable[[tuple, dict], Any]] = None


def _wrap(tracer: Tracer, probe: Probe, original: Callable) -> Callable:
    name = f"{probe.owner.__name__}.{probe.method}"
    bucket, before, after = probe.bucket, probe.before, probe.after
    stack = tracer.stack

    @functools.wraps(original)
    def traced(*args, **kwargs):
        # Outside a root span, or re-entering the same method (a super()
        # chain), the call is not a new span.
        if not stack or stack[-1][_NAME] == name:
            return original(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        tracer.push(name, bucket)
        try:
            result = original(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result, state)
            return result
        finally:
            tracer.pop()

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[None]:
    """Install ``probes`` for the duration of the block, then restore.

    Install before building the objects to trace: callbacks bound at
    construction time (bus subscriptions, channel handlers) keep the
    function they were bound to.
    """
    saved: List[Tuple[type, str, Any]] = []
    try:
        for probe in probes:
            own = probe.owner.__dict__.get(probe.method)
            original = getattr(probe.owner, probe.method)
            saved.append((probe.owner, probe.method, own))
            setattr(probe.owner, probe.method, _wrap(tracer, probe, original))
        yield
    finally:
        for owner, method, own in reversed(saved):
            if own is None:
                delattr(owner, method)
            else:
                setattr(owner, method, own)


def _count(name: str) -> AfterHook:
    def after(tracer, args, kwargs, result, before):
        tracer.add(name)

    return after


def _attribute_delta(name: str, attribute: str):
    """``before``/``after`` pair counting the growth of ``self.<attribute>``."""

    def before(args, kwargs):
        return getattr(args[0], attribute)

    def after(tracer, args, kwargs, result, start):
        tracer.add(name, getattr(args[0], attribute) - start)

    return {"before": before, "after": after}


def _find(tracer, args, kwargs, result, before):
    tracer.add("distdb.find_calls")
    tracer.add("distdb.find_docs", len(result))


def _compute_job(tracer, args, kwargs, result, before):
    tracer.add("compute.jobs")
    tracer.add("compute.tasks", result.n_tasks)


def _predict_rows(tracer, args, kwargs, result, before):
    tracer.add("ml.predict_rows", len(result))


def _transform_rows(tracer, args, kwargs, result, before):
    tracer.add("preprocessor.rows", result[0].shape[0])


def _publish_feature(tracer, args, kwargs, result, delivered_before):
    tracer.add("feature_manager.published")
    tracer.add(
        "feature_manager.delivered",
        args[0].features_delivered - delivered_before,
    )


def _enforce(tracer, args, kwargs, result, before):
    tracer.add("reaction.enforced")
    tracer.add("reaction.rules", result)


def _poll_round(tracer, args, kwargs, result, degraded_before):
    tracer.add("detector.poll_rounds")
    tracer.add("detector.degraded_rounds", args[0].degraded_rounds - degraded_before)


def _cache_hits(args, kwargs):
    return args[0].app.cache.hits


def _nb_request(tracer, args, kwargs, result, hits_before):
    tracer.add("northbound.requests")
    if args[0].app.cache.hits > hits_before:
        tracer.add("northbound.cache_hits")
        tracer.set_bucket("northbound.hit_self_s")


def _subclasses(base: type) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def _ml_probes() -> List[Probe]:
    """Fit/predict of every batch estimator; the online learners' hot path."""
    import repro.ml  # noqa: F401 — registers every estimator class
    from repro.ml.base import Estimator
    from repro.ml.online import OnlineLearner

    online = {OnlineLearner, *_subclasses(OnlineLearner)}
    probes: List[Probe] = []
    for cls in [Estimator, *_subclasses(Estimator)]:
        own = cls.__dict__
        if cls in online:
            for method in ("partial_fit", "predict_event", "refresh"):
                if method in own:
                    probes.append(Probe(cls, method, "ml.online_self_s"))
            if "score_event" in own:
                probes.append(Probe(cls, "score_event", "ml.online_self_s",
                                    after=_count("ml.online_scored")))
            continue
        for method in ("fit", "fit_distributed", "label_clusters"):
            if method in own:
                probes.append(Probe(cls, method, "ml.fit_self_s"))
        if "predict" in own:
            probes.append(Probe(cls, "predict", "ml.predict_self_s",
                                after=_predict_rows))
        if "cluster_composition" in own:
            probes.append(Probe(cls, "cluster_composition", "ml.predict_self_s"))
    return probes


def layer_probes() -> List[Probe]:
    """The probes of every layer the per-layer metrics name."""
    from repro.compute.cluster import ComputeCluster
    from repro.controller.events import EventBus
    from repro.controller.instance import ControllerInstance
    from repro.core.detector_manager import DetectorManager
    from repro.core.feature_manager import FeatureManager
    from repro.core.generator import FeatureGenerator
    from repro.core.preprocessor import Preprocessor
    from repro.core.reaction_manager import ReactionManager
    from repro.core.southbound import AthenaProxy, AttackReactor, SouthboundElement
    from repro.dataplane.host import Host
    from repro.dataplane.switch import OpenFlowSwitch
    from repro.distdb.cluster import DatabaseCluster
    from repro.northbound.client import LocalClient
    from repro.openflow.messages import FlowMod
    from repro.simkernel.scheduler import Simulator
    from repro.streaming.detector import StreamingDetectorManager
    from repro.streaming.pipeline import StreamingPipeline

    def flow_mod(tracer, args, kwargs, result, before):
        msg = args[1] if len(args) > 1 else kwargs["msg"]
        if isinstance(msg, FlowMod):
            tracer.add("dataplane.flowmods")

    P = Probe
    write, read = "distdb.insert_self_s", "distdb.find_self_s"
    probes = [
        # distdb
        P(DatabaseCluster, "insert_one", write, after=_count("distdb.insert_docs")),
        # insert_many loops over insert_one, which counts the documents.
        P(DatabaseCluster, "insert_many", write),
        P(DatabaseCluster, "update_many", write),
        P(DatabaseCluster, "delete_many", write),
        P(DatabaseCluster, "find", read, after=_find),
        P(DatabaseCluster, "find_frame", read, after=_find),
        P(DatabaseCluster, "aggregate", read, after=_find),
        P(DatabaseCluster, "count", read, after=_count("distdb.find_calls")),
        # core.feature_manager
        P(FeatureManager, "publish", "feature_manager.self_s",
          before=lambda a, k: a[0].features_delivered, after=_publish_feature),
        P(FeatureManager, "publish_documents", "feature_manager.self_s",
          after=lambda t, a, k, r, b: t.add("feature_manager.published", r)),
        P(FeatureManager, "request_features", "feature_manager.self_s"),
        P(FeatureManager, "request_frame", "feature_manager.self_s"),
        P(FeatureManager, "count_features", "feature_manager.self_s"),
        # core.preprocessor
        P(Preprocessor, "fit", "preprocessor.self_s"),
        P(Preprocessor, "fit_frame", "preprocessor.self_s"),
        P(Preprocessor, "fit_transform", "preprocessor.self_s"),
        P(Preprocessor, "fit_transform_frame", "preprocessor.self_s"),
        P(Preprocessor, "transform", "preprocessor.self_s", after=_transform_rows),
        P(Preprocessor, "transform_frame", "preprocessor.self_s",
          after=_transform_rows),
        P(Preprocessor, "transform_one", "preprocessor.self_s"),
        # compute
        P(ComputeCluster, "run_map", "compute.self_s", after=_compute_job),
        P(ComputeCluster, "run_iterative", "compute.self_s", after=_compute_job),
        P(ComputeCluster, "run_local", "compute.self_s", after=_compute_job),
        # simkernel, dataplane
        P(Simulator, "run", "simkernel.self_s",
          after=lambda t, a, k, r, b: t.add("simkernel.events", r)),
        P(OpenFlowSwitch, "receive_packet", "dataplane.self_s",
          after=_count("dataplane.packets")),
        P(OpenFlowSwitch, "handle_message", "dataplane.self_s", after=flow_mod),
        P(OpenFlowSwitch, "expire_flows", "dataplane.self_s"),
        P(Host, "deliver", "dataplane.self_s"),
        # controller, core.southbound
        P(ControllerInstance, "_on_switch_message", "controller.self_s",
          after=_count("controller.msgs_from_switch")),
        P(ControllerInstance, "send", "controller.self_s",
          after=_count("controller.msgs_to_switch")),
        P(EventBus, "publish", "controller.self_s"),
        P(SouthboundElement, "poll_now", "southbound.self_s",
          after=_count("southbound.polls")),
        P(SouthboundElement, "_on_stats", "southbound.self_s"),
        P(AthenaProxy, "issue_flow_rule", "southbound.self_s"),
        P(AthenaProxy, "remove_flow_rule", "southbound.self_s"),
        P(AthenaProxy, "issue_stats_requests", "southbound.self_s"),
        P(AttackReactor, "block", "southbound.self_s"),
        P(AttackReactor, "quarantine", "southbound.self_s"),
        P(AttackReactor, "undo", "southbound.self_s"),
        # core.generator
        *[
            P(FeatureGenerator, method, "generator.self_s",
              **_attribute_delta("generator.records", "features_generated"))
            for method in ("on_stats_event", "on_packet_in", "on_flow_removed",
                           "on_message_tap", "collect_garbage")
        ],
        # core.detector_manager
        P(DetectorManager, "poll_round", "detector.self_s",
          before=lambda a, k: a[0].degraded_rounds, after=_poll_round),
        P(DetectorManager, "generate_detection_model", "detector.self_s"),
        P(DetectorManager, "validate_features", "detector.self_s"),
        P(DetectorManager, "validate_one", "detector.self_s",
          after=_count("detector.online_verdicts")),
        # core.reaction_manager
        P(ReactionManager, "enforce", "reaction.self_s", after=_enforce),
        # streaming
        *[
            P(StreamingPipeline, method, "streaming.fold_self_s",
              **_attribute_delta("streaming.events", "events_processed"))
            for method in ("_on_packet_in", "_on_flow_removed", "_on_stats")
        ],
        P(StreamingDetectorManager, "on_event", "streaming.fold_self_s",
          before=lambda a, k: len(a[0].alerts),
          after=lambda t, a, k, r, b: t.add("streaming.alerts", len(a[0].alerts) - b)),
        P(StreamingDetectorManager, "refresh", "streaming.fold_self_s"),
        # northbound: a request is filed as a miss unless the cache served it
        P(LocalClient, "request", "northbound.miss_self_s",
          before=_cache_hits, after=_nb_request),
    ]
    return probes + _ml_probes()


def layer_metrics(
    tracer: Tracer,
    rounds: int,
    gauges: Dict[str, float],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced phase."""
    rounds = max(1, rounds)
    requests = tracer.counts.get("northbound.requests", 0.0)
    ratios = {
        "northbound.cache_hit_ratio": (
            tracer.counts.get("northbound.cache_hits", 0.0) / requests
            if requests else 0.0
        ),
        "unattributed_ratio": (
            tracer.self_ns.get(UNATTRIBUTED, 0) / tracer.root_ns
            if tracer.root_ns else 0.0
        ),
        "trace_overhead_ratio": overhead_ratio,
    }
    values: Dict[str, float] = {}
    for name, _unit, kind in PER_LAYER:
        if kind == "self":
            values[name] = tracer.self_ns.get(name, 0) / 1e9 / rounds
        elif kind == "count":
            values[name] = tracer.counts.get(name, 0.0) / rounds
        elif kind == "gauge":
            values[name] = float(gauges.get(name, 0.0))
        else:
            values[name] = ratios[name]
    return values
