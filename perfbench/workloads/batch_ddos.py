"""``batch_ddos``: Scenario 1 (paper Fig 6) through the feature store.

One round is one pass of the paper's Application 1 over a seeded DDoS
dataset: bulk-publish the documents into the sharded store, build a
K-Means model (K=8, 20 iterations, 5 runs) over the stored train window,
and validate the test window.  The pass is the timed operation; the store
is emptied, untimed, before each pass.  There is no simulator: the work is
the distdb bulk write and full-scan reads, row-wise preprocessing and
k-means.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: Dataset size as a share of the paper's 37.37M entries (~9.3k entries).
SCALE = 0.00025
#: Warm-up pass size: loads lazily imported code before anything is timed.
WARMUP_SCALE = 0.00005
TRAIN_WINDOW = (0.0, 1800.0)
TEST_WINDOW = (1800.0, 3600.0)
KMEANS = {"k": 8, "max_iterations": 20, "runs": 5}
#: The Fig 6 band tests/test_apps.py asserts.
MIN_DETECTION_RATE = 0.98
MAX_FALSE_ALARM_RATE = 0.07


@dataclass
class _State:
    athena: Any
    documents: List[Dict[str, Any]]
    train_rows: int
    test_rows: int
    #: (TP, FP, TN, FN) of every pass, which must all agree.
    confusions: List[Tuple[int, int, int, int]] = field(default_factory=list)
    model_build_s: List[float] = field(default_factory=list)
    validate_s: List[float] = field(default_factory=list)


def _rows_in(documents, window) -> int:
    low, high = window
    return sum(
        1
        for doc in documents
        if doc.get("feature_scope") == "flow" and low <= doc["timestamp"] <= high
    )


def _deployment():
    """The paper's Fig 7 environment: 18 switches, 3 controller instances."""
    from repro.controller import ControllerCluster
    from repro.core import AthenaDeployment
    from repro.dataplane.topologies import enterprise_topology

    topo = enterprise_topology()
    cluster = ControllerCluster(topo.network, n_instances=3)
    cluster.adopt_domains(topo.domains)
    return AthenaDeployment(cluster)


def _application_one(athena, documents):
    """Publish, GenerateDetectionModel, ValidateFeatures; returns the
    model, the summary and the two NB calls' wall times."""
    from repro.core.algorithm import GenerateAlgorithm
    from repro.core.preprocessor import GeneratePreprocessor
    from repro.core.query import GenerateQuery
    from repro.workloads.ddos import DDOS_FEATURES

    q_train = GenerateQuery("feature_scope == flow").time_window(*TRAIN_WINDOW)
    q_test = GenerateQuery("feature_scope == flow").time_window(*TEST_WINDOW)
    preprocessor = GeneratePreprocessor(
        normalization="minmax",
        weights={"PAIR_FLOW": 1.5, "PAIR_FLOW_RATIO": 1.5},
        marking="label",
        features=DDOS_FEATURES,
    )
    algorithm = GenerateAlgorithm("kmeans", **KMEANS)
    nb = athena.northbound
    athena.feature_manager.publish_documents(documents)
    start = time.perf_counter()
    model = nb.GenerateDetectionModel(q_train, preprocessor, algorithm)
    built = time.perf_counter()
    summary = nb.ValidateFeatures(q_test, preprocessor, model)
    validated = time.perf_counter()
    return model, summary, built - start, validated - built


class BatchDDoS:
    min_rounds = 2
    setup_per_round = False

    def setup(self, seed: int) -> _State:
        from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec

        athena = _deployment()
        warmup = DDoSDatasetGenerator(
            DDoSDatasetSpec(scale=WARMUP_SCALE, seed=seed)
        ).generate()
        _application_one(athena, warmup)
        athena.feature_manager.clear_features()
        documents = DDoSDatasetGenerator(
            DDoSDatasetSpec(scale=SCALE, seed=seed)
        ).generate()
        return _State(
            athena=athena,
            documents=documents,
            train_rows=_rows_in(documents, TRAIN_WINDOW),
            test_rows=_rows_in(documents, TEST_WINDOW),
        )

    def round(self, state: _State, recorder, outcome) -> None:
        feature_manager = state.athena.feature_manager
        feature_manager.clear_features()
        recorder.start()
        model, summary, build_s, validate_s = _application_one(
            state.athena, state.documents
        )
        recorder.stop()
        state.model_build_s.append(build_s)
        state.validate_s.append(validate_s)
        outcome.units += len(state.documents)
        # Three NB operations per pass, each checked against the dataset.
        outcome.attempted += 3
        stored = feature_manager.count_features()
        for ok in (
            stored == len(state.documents),
            model.trained_entries == state.train_rows,
            summary.total_entries == state.test_rows,
        ):
            outcome.failed += not ok
        outcome.check(
            summary.detection_rate > MIN_DETECTION_RATE,
            f"detection rate {summary.detection_rate:.5f} "
            f"<= {MIN_DETECTION_RATE}",
        )
        outcome.check(
            summary.false_alarm_rate < MAX_FALSE_ALARM_RATE,
            f"false alarm rate {summary.false_alarm_rate:.5f} "
            f">= {MAX_FALSE_ALARM_RATE}",
        )
        state.confusions.append(
            (summary.true_positives, summary.false_positives,
             summary.true_negatives, summary.false_negatives)
        )

    def finish(self, state: _State, outcome) -> None:
        outcome.check(
            len(set(state.confusions)) == 1,
            f"passes over one dataset disagree: {sorted(set(state.confusions))}",
        )
        outcome.gauges["feature_manager.pending_writes"] = (
            state.athena.feature_manager.pending_writes
        )
        outcome.named["model_build_s"] = statistics.median(state.model_build_s)
        outcome.named["validate_s"] = statistics.median(state.validate_s)

    def named_metrics(self, end_to_end, outcome) -> Dict[str, float]:
        return {
            "batch_entries_per_s": end_to_end["throughput_per_s"],
            "model_build_s": outcome.named["model_build_s"],
            "validate_s": outcome.named["validate_s"],
        }
