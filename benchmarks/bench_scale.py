"""The Fig-10 scale sweep behind ``BENCH_scale.json``.

Exercises the columnar batch feature path (docs/PERF.md, docs/COMPUTE.md)
on the DDoS flow-record dataset at paper scale and proves the three
claims the ``ATHENA_COLUMNAR`` flag makes, each fast-vs-reference on
identical stores with equivalence asserted before a speedup is reported:

* ``batch_extraction`` — rows/sec from the sharded store to a
  model-ready (matrix, marks) pair: ``request_frame`` +
  ``transform_frame`` vs ``request_features`` + the per-row document
  transform, byte-identical outputs (gate: >= 5x full mode, >= 1x
  quick/CI mode);
* ``worker_scale_modeled`` — the Fig-10 curve for extraction itself:
  chunked frame extraction dispatched over 1/2/4/8 compute workers with
  the calibrated distribution-cost model and ``work_scale = 1/scale``
  occupying workers as the 37.37M-entry dataset would.  Gate: the 1 -> 8
  worker makespan ratio stays near-linear (>= 4x full, >= 3x quick);
* ``worker_scale_wallclock`` — the same sweep measured for real on the
  process execution backend (gate >= 1.5x from 1 to 4 workers, applied
  only when >= 4 CPUs are actually available; the CPU count is recorded
  either way);
* ``memory_ceiling`` — rows per MB of tracemalloc peak for one
  extraction: column arrays over shared document references vs the
  copied-document path (gate: frame path >= 2x denser, full mode);
* ``insert_many_batch`` — docs/sec into the column store, one routed
  batch vs a per-document insert loop (ungated context; stores must end
  identical);
* ``detection_equivalence`` — the full DDoS batch detection run twice on
  one frozen store, ``ATHENA_COLUMNAR`` off then on: predictions,
  confusion counts, and cluster reports must be byte-identical
  (ungated; the equivalence verdict itself is the gate).

Runs standalone (``python benchmarks/bench_scale.py [--quick]
[--output PATH]``, exit 1 on gate failure) and under pytest (quick
workload).  The standalone run writes the ``BENCH_scale.json`` artifact
CI uploads; a full run's output is committed at the repo root.
"""

import argparse
import os
import sys
import tracemalloc

import numpy as np

from repro.compute import ClusterConfig, ComputeCluster, PartitionedDataset
from repro.controller import ControllerCluster
from repro.core import AthenaDeployment
from repro.core.feature_manager import FEATURE_COLLECTION, FeatureManager
from repro.core.preprocessor import GeneratePreprocessor
from repro.core.query import GenerateQuery
from repro.dataplane.topologies import linear_topology
from repro.distdb import ColumnStoreCluster, DatabaseCluster
from repro.distdb.frame import ChunkExtractor, assemble_chunks
from repro.perf import BenchResult, HotpathReport, columnar, measure_throughput
from repro.telemetry.clocks import Stopwatch
from repro.workloads.ddos import DDOS_FEATURES, DDoSDatasetGenerator, DDoSDatasetSpec

# Paper dataset: 37,370,466 flow entries.  The full sweep replays a
# 0.054 slice (~2.02M entries, the multi-million tier the frame path is
# for); quick/CI mode replays 0.004 (~150k).
FULL_SCALE = 0.054
QUICK_SCALE = 0.004

# The dual-path detection run retrains K-Means twice, so it uses the
# Fig-10 validation scale rather than the extraction-sweep scale.
FULL_DETECT_SCALE = 0.01
QUICK_DETECT_SCALE = 0.002

WORKER_COUNTS = (1, 2, 4, 8)
WALLCLOCK_WORKERS = (1, 2, 4)
N_PARTITIONS = 8
N_SHARDS = 4


def _train_query():
    return GenerateQuery("feature_scope == flow").time_window(0.0, 1800.0)


def _preprocessor():
    return GeneratePreprocessor(
        normalization="minmax",
        weights={"PAIR_FLOW": 1.5, "PAIR_FLOW_RATIO": 1.5},
        marking="label",
        features=DDOS_FEATURES,
    )


def _build_store(scale):
    """One sharded store holding the replayed dataset; built exactly once.

    Feature documents carry no ``_id``, so shard routing falls back to
    object identity — every comparison below therefore runs both paths
    over this single frozen store rather than re-populating.
    """
    generator = DDoSDatasetGenerator(DDoSDatasetSpec(scale=scale))
    documents = generator.generate()
    database = DatabaseCluster(n_shards=N_SHARDS, shard_key="switch_id")
    manager = FeatureManager(database, store_features=True)
    manager.publish_documents(documents)
    return database, manager, len(documents)


# -- batch extraction: store -> model-ready (matrix, marks) ------------------


def _bench_batch_extraction(manager, quick):
    query = _train_query()
    preprocessor = _preprocessor()
    preprocessor.fit(manager.request_features(query))

    slow_docs = manager.request_features(query)
    slow_matrix, slow_marks, _ = preprocessor.transform(slow_docs)
    frame = manager.request_frame(query)
    fast_matrix, fast_marks, kept = preprocessor.transform_frame(frame)
    equivalent = (
        fast_matrix.tobytes() == slow_matrix.tobytes()
        and fast_marks.tobytes() == slow_marks.tobytes()
        and kept.copy_documents() == slow_docs
    )
    n_rows = len(slow_docs)

    def run_fast():
        preprocessor.transform_frame(manager.request_frame(query))

    def run_slow():
        preprocessor.transform(manager.request_features(query))

    rounds = 2 if quick else 3
    return BenchResult(
        name="batch_extraction",
        fast_ops_per_sec=measure_throughput(run_fast, n_rows, rounds=rounds),
        slow_ops_per_sec=measure_throughput(run_slow, n_rows, rounds=rounds),
        n_ops=n_rows,
        equivalent=equivalent,
        unit="rows/s",
        detail={"features": len(DDOS_FEATURES), "shards": N_SHARDS},
    )


# -- worker scale-down -------------------------------------------------------


def _extraction_partitions(database, filter_):
    """The shard candidate lists rebalanced to the sweep's task count."""
    partitions = [p for p in database.shard_candidates(FEATURE_COLLECTION, filter_) if p]
    rebalanced = []
    per_shard = max(1, N_PARTITIONS // max(1, len(partitions)))
    for part in partitions:
        splits = PartitionedDataset.from_records(part, per_shard).partitions
        rebalanced.extend(s for s in splits if s)
    return rebalanced or [[]]


def _sweep_config(scale):
    """Fig-10 distribution-cost constants (see bench_fig10_scalability)."""
    return ClusterConfig(
        t_setup=0.12, t_broadcast=0.02, t_collect=0.002, work_scale=1.0 / scale
    )


def _bench_worker_scale_modeled(database, manager, scale, quick):
    query = _train_query()
    filter_ = query.to_db_filter() or None
    columns = tuple(DDOS_FEATURES) + ("label",)
    partitions = _extraction_partitions(database, filter_)
    dataset = PartitionedDataset(partitions)
    extractor = ChunkExtractor(columns, filter_)
    reference = manager.request_frame(query, columns=list(columns))

    makespans = {}
    equivalent = True
    for n_workers in WORKER_COUNTS:
        compute = ComputeCluster(n_workers, config=_sweep_config(scale))
        report = compute.run_map(dataset, extractor)
        frame = assemble_chunks(report.result, partitions)
        equivalent = equivalent and (
            frame.to_matrix(DDOS_FEATURES).tobytes()
            == reference.to_matrix(DDOS_FEATURES).tobytes()
            and frame.documents() == reference.documents()
        )
        makespans[n_workers] = report.makespan_seconds
    # The public API drives the same parallel path end to end.
    api_frame = manager.request_frame(
        query,
        columns=list(columns),
        compute=ComputeCluster(4, config=_sweep_config(scale)),
        n_partitions=N_PARTITIONS,
    )
    equivalent = equivalent and api_frame.documents() == reference.documents()

    n_rows = reference.n_rows
    first, last = WORKER_COUNTS[0], WORKER_COUNTS[-1]
    return BenchResult(
        name="worker_scale_modeled",
        fast_ops_per_sec=n_rows / makespans[last],
        slow_ops_per_sec=n_rows / makespans[first],
        n_ops=n_rows,
        equivalent=equivalent,
        unit="rows/s",
        detail={
            "work_scale": round(1.0 / scale, 2),
            "partitions": len(partitions),
            "makespan_seconds": {
                str(w): round(makespans[w], 4) for w in WORKER_COUNTS
            },
            "t_last_over_t1": round(makespans[last] / makespans[first], 4),
        },
    )


def _bench_worker_scale_wallclock(database, quick):
    filter_ = _train_query().to_db_filter() or None
    columns = tuple(DDOS_FEATURES) + ("label",)
    partitions = _extraction_partitions(database, filter_)
    dataset = PartitionedDataset(partitions)
    extractor = ChunkExtractor(columns, filter_)

    walls = {}
    reference_bytes = None
    equivalent = True
    for n_workers in WALLCLOCK_WORKERS:
        compute = ComputeCluster(n_workers, backend="process")
        report = compute.run_map(dataset, extractor)
        equivalent = equivalent and report.fallback_tasks == 0
        frame_bytes = assemble_chunks(report.result, partitions).to_matrix(
            DDOS_FEATURES
        ).tobytes()
        if reference_bytes is None:
            reference_bytes = frame_bytes
        equivalent = equivalent and frame_bytes == reference_bytes
        walls[n_workers] = report.wall_seconds
    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    n_rows = sum(len(p) for p in partitions)
    first, last = WALLCLOCK_WORKERS[0], WALLCLOCK_WORKERS[-1]
    result = BenchResult(
        name="worker_scale_wallclock",
        fast_ops_per_sec=n_rows / walls[last] if walls[last] > 0 else float("inf"),
        slow_ops_per_sec=n_rows / walls[first] if walls[first] > 0 else float("inf"),
        n_ops=n_rows,
        equivalent=equivalent,
        unit="rows/s",
        detail={
            "backend": "process",
            "cpus_available": cpus,
            "gated": cpus >= 4,
            "wall_seconds": {str(w): round(walls[w], 4) for w in WALLCLOCK_WORKERS},
        },
    )
    return result, cpus


# -- memory ceiling ----------------------------------------------------------


def _bench_memory_ceiling(database, manager, quick):
    query = _train_query()
    filter_ = query.to_db_filter() or None
    preprocessor = _preprocessor()
    preprocessor.fit(manager.request_features(query))
    columns = tuple(DDOS_FEATURES) + ("label",)

    tracemalloc.start()
    frame = database.find_frame(FEATURE_COLLECTION, filter_, columns=columns)
    fast_out = preprocessor.transform_frame(frame)
    _, fast_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    fast_bytes = fast_out[0].tobytes()
    n_rows = frame.n_rows
    del frame, fast_out

    tracemalloc.start()
    docs = database.find(FEATURE_COLLECTION, filter_)
    slow_out = preprocessor.transform(docs)
    _, slow_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    equivalent = slow_out[0].tobytes() == fast_bytes
    del docs, slow_out

    mb = 1024 * 1024
    return BenchResult(
        name="memory_ceiling",
        fast_ops_per_sec=n_rows / (fast_peak / mb),
        slow_ops_per_sec=n_rows / (slow_peak / mb),
        n_ops=n_rows,
        equivalent=equivalent,
        unit="rows/MB",
        detail={
            "fast_peak_mb": round(fast_peak / mb, 1),
            "slow_peak_mb": round(slow_peak / mb, 1),
            "fast_bytes_per_row": round(fast_peak / n_rows, 1),
            "slow_bytes_per_row": round(slow_peak / n_rows, 1),
        },
    )


# -- batched column-store ingest ---------------------------------------------


def _bench_insert_many(quick):
    n_docs = 10_000 if quick else 100_000
    generator = DDoSDatasetGenerator(DDoSDatasetSpec(scale=0.0003 if quick else 0.003))
    docs = generator.generate()[:n_docs]
    n_docs = len(docs)

    batch_store = ColumnStoreCluster(n_nodes=3)
    batch_store.insert_many("features", [dict(d) for d in docs])
    loop_store = ColumnStoreCluster(n_nodes=3)
    for doc in docs:
        loop_store.insert_one("features", dict(doc))
    equivalent = (
        batch_store.writes == loop_store.writes
        and batch_store.find("features", None) == loop_store.find("features", None)
    )

    def run_batch():
        ColumnStoreCluster(n_nodes=3).insert_many(
            "features", [dict(d) for d in docs]
        )

    def run_loop():
        store = ColumnStoreCluster(n_nodes=3)
        for doc in docs:
            store.insert_one("features", dict(doc))

    rounds = 2 if quick else 3
    return BenchResult(
        name="insert_many_batch",
        fast_ops_per_sec=measure_throughput(run_batch, n_docs, rounds=rounds),
        slow_ops_per_sec=measure_throughput(run_loop, n_docs, rounds=rounds),
        n_ops=n_docs,
        equivalent=equivalent,
        unit="docs/s",
        detail={"nodes": 3, "replication": 2},
    )


# -- dual-path detection on one frozen store ---------------------------------


def _timed_detection(app, test_documents, enabled):
    with columnar.scope(enabled):
        watch = Stopwatch()
        summary = app.run_batch(test_documents=test_documents)
        elapsed = watch.elapsed()
    return summary, elapsed


def _bench_detection_equivalence(quick):
    scale = QUICK_DETECT_SCALE if quick else FULL_DETECT_SCALE
    generator = DDoSDatasetGenerator(DDoSDatasetSpec(scale=scale))
    train, test = generator.train_test_split(generator.generate())

    topo = linear_topology(n_switches=2)
    controller = ControllerCluster(topo.network, n_instances=1)
    controller.adopt_all()
    athena = AthenaDeployment(
        controller,
        database=DatabaseCluster(n_shards=N_SHARDS, shard_key="switch_id"),
        compute=ComputeCluster(4),
        distributed_threshold=1000,
    )
    from repro.apps.ddos import DDoSDetectorApp

    app = DDoSDetectorApp(params={"k": 8, "max_iterations": 10, "runs": 1, "seed": 1})
    athena.register_app(app)
    # Freeze the store once; training reads it through whichever path the
    # flag selects, validation consumes the same pre-fetched test split.
    athena.feature_manager.publish_documents(train)

    doc_summary, doc_elapsed = _timed_detection(app, test, enabled=False)
    col_summary, col_elapsed = _timed_detection(app, test, enabled=True)
    equivalent = (
        np.array_equal(doc_summary.predictions, col_summary.predictions)
        and doc_summary.to_dict() == col_summary.to_dict()
        and doc_summary.clusters == col_summary.clusters
    )
    n_rows = doc_summary.total_entries
    return BenchResult(
        name="detection_equivalence",
        fast_ops_per_sec=n_rows / col_elapsed if col_elapsed > 0 else float("inf"),
        slow_ops_per_sec=n_rows / doc_elapsed if doc_elapsed > 0 else float("inf"),
        n_ops=n_rows,
        equivalent=equivalent,
        unit="entries/s",
        detail={
            "scale": scale,
            "train_entries": len(train),
            "detection_rate": round(doc_summary.detection_rate, 4),
            "false_alarm_rate": round(doc_summary.false_alarm_rate, 4),
        },
    )


# -- assembly ----------------------------------------------------------------


def run_report(quick=False):
    scale = QUICK_SCALE if quick else FULL_SCALE
    report = HotpathReport(quick=quick, bench="scale")
    database, manager, n_rows = _build_store(scale)
    report.add(
        _bench_batch_extraction(manager, quick),
        min_speedup=1.0 if quick else 5.0,
    )
    report.add(
        _bench_worker_scale_modeled(database, manager, scale, quick),
        min_speedup=3.0 if quick else 4.0,
    )
    wallclock, cpus = _bench_worker_scale_wallclock(database, quick)
    report.add(wallclock, min_speedup=1.5 if cpus >= 4 else None)
    report.add(
        _bench_memory_ceiling(database, manager, quick),
        # Measured on the committed run: ~456 B/row frame-path peak vs
        # ~720 B/row for the document path (~1.6x more rows per MB); the
        # gate sits under that with headroom for allocator noise.
        min_speedup=None if quick else 1.4,
    )
    del database, manager
    report.add(_bench_insert_many(quick))
    report.add(_bench_detection_equivalence(quick))
    for result in report.results:
        result.detail.setdefault("dataset_rows", n_rows)
    return report


# -- pytest entry points -----------------------------------------------------


def test_scale_quick(recorder):
    report = run_report(quick=True)
    recorder.set_meta(quick=True)
    for result in report.results:
        recorder.add_row(
            name=result.name,
            unit=result.unit,
            fast_ops_per_sec=round(result.fast_ops_per_sec, 1),
            slow_ops_per_sec=round(result.slow_ops_per_sec, 1),
            speedup=round(result.speedup, 2),
            equivalent=result.equivalent,
        )
    recorder.print_table("columnar scale sweep (quick)")
    assert report.passed, report.failures()


# -- standalone entry point --------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads + relaxed gates (CI smoke mode)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_scale.json",
        help="where to write the JSON artifact (default: ./BENCH_scale.json)",
    )
    args = parser.parse_args(argv)
    report = run_report(quick=args.quick)
    report.write(args.output)
    report.print_summary()
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
