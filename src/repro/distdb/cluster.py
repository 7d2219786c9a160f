"""The database cluster router.

Routes documents to shards by a hash of the shard key, targets single shards
when a query pins the key, and scatter-gathers otherwise.  Aggregation
pipelines with a leading ``$match``/``$group`` execute per shard and merge at
the router when the accumulators allow it; otherwise raw documents are pulled
and aggregated centrally (the correctness-preserving fallback).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.distdb.aggregation import aggregate, merge_grouped
from repro.distdb.frame import FeatureFrame, filter_mask, scan_fields
from repro.distdb.query import equality_value, sort_documents, validate_filter
from repro.distdb.shard import ShardNode
from repro.errors import AllShardsDownError, DatabaseError, ShardDownError
from repro.telemetry import get_telemetry

#: Operation labels shared by the router's telemetry instruments.
_DB_OPS = ("insert", "delete", "update", "find", "find_frame", "count", "aggregate")


def _hash_value(value: Any) -> int:
    digest = hashlib.md5(repr(value).encode()).digest()
    return int.from_bytes(digest[:4], "big")


class DatabaseCluster:
    """A sharded document store with a Mongo-like client interface."""

    def __init__(
        self,
        n_shards: int = 3,
        shard_key: str = "_id",
        replication: int = 2,
    ) -> None:
        if n_shards < 1:
            raise DatabaseError("cluster needs at least one shard")
        if replication < 1:
            raise DatabaseError("replication factor must be >= 1")
        self.shards = [ShardNode(i) for i in range(n_shards)]
        self.shard_key = shard_key
        #: Copies of each document (1 primary + replicas), as in a Mongo
        #: replica set; replicas live on the next shards round-robin.
        self.replication = min(replication, n_shards) if n_shards > 1 else 1
        self.router_ops = 0
        self.bytes_on_wire = 0
        #: Bumped whenever a scan's result set could change; the columnar
        #: frame cache keys on it.
        self._generation = 0
        #: collection -> (generation, full-scan frame, id(doc) -> row).
        self._frame_cache: Dict[
            str, Tuple[int, FeatureFrame, Dict[int, int]]
        ] = {}
        #: Shards with injected replication lag: replica copies destined
        #: for a lagging shard queue here and apply when the lag ends.
        self._replica_lag: Dict[int, List[Tuple[str, Dict[str, Any]]]] = {}
        # Telemetry: the per-op counter takes a dynamic ``collection``
        # label, so the hot write path guards on a captured enabled flag
        # instead of paying the labels() lookup when disabled.
        registry = get_telemetry().registry
        self._telemetry_on = registry.enabled
        self._metric_ops = registry.counter(
            "athena_distdb_ops_total",
            "Router operations served, by operation and collection.",
            labelnames=("op", "collection"),
        )
        op_seconds = registry.histogram(
            "athena_distdb_op_seconds",
            "Wall seconds per router operation.",
            labelnames=("op",),
        )
        self._op_timers = {op: op_seconds.labels(op=op) for op in _DB_OPS}
        self._metric_wire_bytes = registry.counter(
            "athena_distdb_wire_bytes_total",
            "Driver-side wire bytes encoded for inserts.",
        )

    # -- routing ---------------------------------------------------------

    def _shard_for(self, value: Any) -> ShardNode:
        shard = self.shards[_hash_value(value) % len(self.shards)]
        shard.ensure_up()
        return shard

    def _read_shards(self, filter_: Optional[Dict[str, Any]]) -> List[ShardNode]:
        """The pinned shard key's home shard, else every live shard.

        An ``_id`` pin scatters: documents inserted without one were
        routed by content and got their ``_id`` on the shard.
        """
        pinned = equality_value(filter_, self.shard_key)
        if pinned is None or self.shard_key == "_id":
            return self._live_shards()
        return [self._shard_for(pinned)]

    def _live_shards(self) -> List[ShardNode]:
        live = [s for s in self.shards if s.up]
        if not live:
            raise AllShardsDownError()
        return live

    # -- writes ------------------------------------------------------------

    @staticmethod
    def _replica_name(collection: str) -> str:
        return collection + "__replica"

    def _insert_one_impl(self, collection: str, doc: Dict[str, Any]) -> Any:
        self.router_ops += 1
        self._generation += 1
        # Driver-side wire encoding (the BSON step a real client performs);
        # this is genuine per-insert CPU work, which is what makes the
        # Table IX 'DB operations dominate' result measurable.
        wire = json.dumps(doc, default=str, separators=(",", ":"))
        self.bytes_on_wire += len(wire)
        self._metric_wire_bytes.inc(len(wire))
        key_value = doc.get(self.shard_key)
        # No shard key: route by content, so the same documents land on
        # the same shards (and read back in the same order) every time.
        key_hash = (
            zlib.crc32(wire.encode()) if key_value is None
            else _hash_value(key_value)
        )
        home = self.shards[key_hash % len(self.shards)]
        chain = [
            self.shards[(home.node_id + offset) % len(self.shards)]
            for offset in range(self.replication)
        ]
        # Replica-set semantics: the first live node in the chain acts as
        # primary; with no replication a dead home shard fails the write.
        live = [shard for shard in chain if shard.up]
        if not live:
            if not any(shard.up for shard in self.shards):
                raise AllShardsDownError()
            raise ShardDownError(home.node_id)
        primary = live[0]
        inserted_id = primary.collection(collection).insert_one(doc)
        replica_name = self._replica_name(collection)
        for replica in live[1:]:
            copy = dict(doc)
            copy["_id"] = inserted_id
            lagged = self._replica_lag.get(replica.node_id)
            if lagged is not None:
                lagged.append((replica_name, copy))
            else:
                replica.collection(replica_name).insert_one(copy)
        return inserted_id

    def insert_many(self, collection: str, docs: List[Dict[str, Any]]) -> int:
        for doc in docs:
            self.insert_one(collection, doc)
        return len(docs)

    def _delete_many_impl(self, collection: str, filter_: Optional[Dict[str, Any]] = None) -> int:
        self.router_ops += 1
        self._generation += 1
        validate_filter(filter_)
        removed = 0
        for name in (collection, self._replica_name(collection)):
            for shard in self._live_shards():
                if shard.has_collection(name):
                    count = shard.collection(name).delete_many(filter_)
                    if name == collection:
                        removed += count
        return removed

    def _update_many_impl(
        self, collection: str, filter_: Optional[Dict[str, Any]], changes: Dict[str, Any]
    ) -> int:
        self.router_ops += 1
        self._generation += 1
        touched = 0
        for name in (collection, self._replica_name(collection)):
            for shard in self._live_shards():
                if shard.has_collection(name):
                    count = shard.collection(name).update_many(filter_, changes)
                    if name == collection:
                        touched += count
        return touched

    # -- reads ----------------------------------------------------------------

    def _find_impl(
        self,
        collection: str,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        projection: Optional[List[str]] = None,
    ) -> List[Dict[str, Any]]:
        self.router_ops += 1
        validate_filter(filter_)
        results: List[Dict[str, Any]] = []
        for shard in self._read_shards(filter_):
            if shard.has_collection(collection):
                results.extend(
                    shard.collection(collection).find(
                        filter_, projection=projection
                    )
                )
        if sort:
            sort_documents(results, sort)
        if limit is not None:
            results = results[: max(0, limit)]
        return results

    def shard_candidates(
        self,
        collection: str,
        filter_: Optional[Dict[str, Any]] = None,
    ) -> List[List[Dict[str, Any]]]:
        """Raw per-shard candidate documents, in routing order, zero-copy.

        One list per shard the document path would consult (the pinned
        shard when the filter fixes the shard key, every live shard
        otherwise), each in that shard collection's candidate order — the
        partitions the columnar path extracts from, in parallel or not.
        Callers must treat the documents as read-only.
        """
        validate_filter(filter_)
        return [
            shard.collection(collection).raw_candidates(filter_)
            for shard in self._read_shards(filter_)
            if shard.has_collection(collection)
        ]

    def _frame_index(
        self, collection: str
    ) -> Tuple[FeatureFrame, Dict[int, int]]:
        """The cached full-scan frame plus its document -> row map.

        Columns are materialised once per store generation (any write,
        shard failure, or recovery invalidates); every ``find_frame``
        afterwards is pure array work.  The row map keys on document
        identity — the cache holds references to the stored dicts, so the
        ids stay valid exactly as long as the generation does.
        """
        cached = self._frame_cache.get(collection)
        if cached is not None and cached[0] == self._generation:
            return cached[1], cached[2]
        frame = FeatureFrame.concat(
            [
                FeatureFrame.from_documents(docs)
                for docs in self.shard_candidates(collection, None)
            ]
        )
        rows = {id(doc): i for i, doc in enumerate(frame.documents())}
        self._frame_cache[collection] = (self._generation, frame, rows)
        return frame, rows

    def _find_frame_impl(
        self,
        collection: str,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        columns: Optional[Tuple[str, ...]] = None,
    ) -> FeatureFrame:
        """Vectorised find: cached columns, candidate gather, mask, sort.

        Returns a :class:`FeatureFrame` over the shared stored documents
        holding exactly the rows :meth:`find` would return, in the same
        order (docs/PERF.md equivalence contract): the rows are gathered
        in the document path's own candidate order before masking, so
        index-served filters line up byte-for-byte.
        """
        self.router_ops += 1
        full, rows = self._frame_index(collection)
        scan = scan_fields(columns, filter_, sort)
        if scan is not None:
            full = full.select(scan)
        if filter_ is None:
            # Full scan: candidate order is the cached frame's row order.
            frame = full
        else:
            # Index-served candidates come back in bucket order, not
            # insertion order, so the gather must follow the document
            # path's own candidate sequence even when it covers every row.
            partitions = self.shard_candidates(collection, filter_)
            indices = np.fromiter(
                (rows[id(doc)] for part in partitions for doc in part),
                dtype=np.intp,
                count=sum(len(part) for part in partitions),
            )
            frame = full.take(indices)
        keep = filter_mask(frame, filter_)
        if not keep.all():
            frame = frame.mask(keep)
        if sort:
            frame = frame.sort(sort)
        if limit is not None:
            frame = frame.head(limit)
        if columns is not None and scan != tuple(columns):
            frame = frame.select(columns)
        return frame

    def _count_impl(self, collection: str, filter_: Optional[Dict[str, Any]] = None) -> int:
        self.router_ops += 1
        return sum(
            shard.collection(collection).count(filter_)
            for shard in self._live_shards()
            if shard.has_collection(collection)
        )

    def _aggregate_impl(
        self, collection: str, pipeline: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Run a pipeline, pushing work to shards when mergeable."""
        self.router_ops += 1
        group_idx = next(
            (i for i, stage in enumerate(pipeline) if "$group" in stage), None
        )
        if group_idx is not None:
            spec = pipeline[group_idx]["$group"]
            mergeable = all(
                next(iter(acc)) in ("$sum", "$count", "$min", "$max")
                for field, acc in spec.items()
                if field != "_id"
            )
            prefix_ok = all(
                "$match" in stage for stage in pipeline[:group_idx]
            )
            if mergeable and prefix_ok:
                partials = [
                    aggregate(
                        shard.collection(collection).all_documents(),
                        pipeline[: group_idx + 1],
                    )
                    for shard in self._live_shards()
                    if shard.has_collection(collection)
                ]
                merged = merge_grouped(partials, spec)
                return aggregate(merged, pipeline[group_idx + 1 :])
        docs = [
            doc
            for shard in self._live_shards()
            if shard.has_collection(collection)
            for doc in shard.collection(collection).all_documents()
        ]
        return aggregate(docs, pipeline)


    # -- instrumented public surface ------------------------------------------

    def _tracked(self, op: str, collection: str, impl, *args: Any) -> Any:
        """Run one router op under its counter and latency timer."""
        self._metric_ops.labels(op=op, collection=collection).inc()
        with self._op_timers[op].time():
            return impl(collection, *args)

    def insert_one(self, collection: str, doc: Dict[str, Any]) -> Any:
        if not self._telemetry_on:
            return self._insert_one_impl(collection, doc)
        return self._tracked("insert", collection, self._insert_one_impl, doc)

    def delete_many(
        self, collection: str, filter_: Optional[Dict[str, Any]] = None
    ) -> int:
        if not self._telemetry_on:
            return self._delete_many_impl(collection, filter_)
        return self._tracked("delete", collection, self._delete_many_impl, filter_)

    def update_many(
        self, collection: str, filter_: Optional[Dict[str, Any]], changes: Dict[str, Any]
    ) -> int:
        if not self._telemetry_on:
            return self._update_many_impl(collection, filter_, changes)
        return self._tracked(
            "update", collection, self._update_many_impl, filter_, changes
        )

    def find(
        self,
        collection: str,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        projection: Optional[List[str]] = None,
    ) -> List[Dict[str, Any]]:
        if not self._telemetry_on:
            return self._find_impl(collection, filter_, sort, limit, projection)
        return self._tracked(
            "find", collection, self._find_impl, filter_, sort, limit, projection
        )

    def find_frame(
        self,
        collection: str,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        columns: Optional[Tuple[str, ...]] = None,
    ) -> FeatureFrame:
        if not self._telemetry_on:
            return self._find_frame_impl(collection, filter_, sort, limit, columns)
        return self._tracked(
            "find_frame", collection, self._find_frame_impl, filter_, sort, limit, columns
        )

    def count(self, collection: str, filter_: Optional[Dict[str, Any]] = None) -> int:
        if not self._telemetry_on:
            return self._count_impl(collection, filter_)
        return self._tracked("count", collection, self._count_impl, filter_)

    def aggregate(
        self, collection: str, pipeline: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        if not self._telemetry_on:
            return self._aggregate_impl(collection, pipeline)
        return self._tracked("aggregate", collection, self._aggregate_impl, pipeline)

    # -- administration -----------------------------------------------------------

    def create_index(self, collection: str, *fields: str) -> None:
        for shard in self.shards:
            shard.collection(collection).create_index(*fields)

    def document_count(self) -> int:
        return sum(shard.document_count() for shard in self.shards)

    def shard_status(self) -> List[Dict[str, Any]]:
        """Per-shard liveness and size, for health endpoints and runbooks.

        The serving tier's ``/api/health`` exposes these rows verbatim, so
        the keys are API surface (docs/API.md).
        """
        return [
            {
                "node_id": shard.node_id,
                "up": shard.up,
                "documents": shard.document_count(),
                "replica_lag_depth": self.replica_lag_depth(shard.node_id),
            }
            for shard in self.shards
        ]

    def op_stats(self) -> Dict[str, Any]:
        totals: Dict[str, Any] = {"router_ops": self.router_ops}
        for shard in self.shards:
            for op, count in shard.op_stats().items():
                totals[op] = totals.get(op, 0) + count
        return totals

    def fail_shard(self, node_id: int) -> None:
        self.shards[node_id].up = False
        self._generation += 1

    def recover_shard(self, node_id: int) -> None:
        self.shards[node_id].up = True
        self._generation += 1

    # -- injected replication lag -------------------------------------------

    def begin_replica_lag(self, node_id: int) -> None:
        """Start lagging replica writes destined for ``node_id``.

        The primary copy of every document still lands synchronously; only
        the replica copies queue up, as when a secondary falls behind the
        oplog in a real replica set.
        """
        if not 0 <= node_id < len(self.shards):
            raise DatabaseError(f"no shard {node_id}")
        self._replica_lag.setdefault(node_id, [])

    def end_replica_lag(self, node_id: int) -> int:
        """Catch the shard up: apply every queued replica write."""
        queued = self._replica_lag.pop(node_id, [])
        shard = self.shards[node_id]
        for name, doc in queued:
            shard.collection(name).insert_one(doc)
        if queued:
            self._generation += 1
        return len(queued)

    def replica_lag_depth(self, node_id: int) -> int:
        """Replica writes queued for a lagging shard (0 if not lagging)."""
        return len(self._replica_lag.get(node_id, []))
