"""A Cassandra-style write-optimised store (the paper's proposed fix).

Section VII-C: "the performance overhead of our system primarily originates
from MongoDB related operations.  To boost Athena's performance, we will
consider replacing MongoDB with a high-performance database like
Cassandra."  This module implements that future-work item: a wide-column,
log-structured store whose write path is an append — no secondary-index
maintenance, no per-document wire encoding, replication via cheap buffered
batches — at the cost of scan-based reads.

The public surface duck-types :class:`~repro.distdb.cluster.DatabaseCluster`
(insert/find/count/delete/aggregate/create_index), so
:class:`~repro.core.feature_manager.FeatureManager` and the Cbench harness
can swap backends; ``bench_cassandra_backend`` measures the resulting
Table IX improvement.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.distdb.aggregation import aggregate as _aggregate
from repro.distdb.frame import FeatureFrame, filter_mask
from repro.distdb.query import filter_documents, sort_documents, validate_filter
from repro.errors import DatabaseError
from repro.telemetry import get_telemetry


def _hash_value(value: Any) -> int:
    digest = hashlib.md5(repr(value).encode()).digest()
    return int.from_bytes(digest[:4], "big")


class _ColumnFamily:
    """One table on one node: a memtable plus flushed sstables."""

    def __init__(self, flush_threshold: int = 4096) -> None:
        self.flush_threshold = flush_threshold
        self.memtable: List[Dict[str, Any]] = []
        self.sstables: List[List[Dict[str, Any]]] = []
        self.writes = 0
        self.flushes = 0

    def append(self, doc: Dict[str, Any]) -> None:
        # The write path is just an append; cheapness is the point.
        self.memtable.append(doc)
        self.writes += 1
        if len(self.memtable) >= self.flush_threshold:
            self.flush()

    def flush(self) -> None:
        if self.memtable:
            self.sstables.append(self.memtable)
            self.memtable = []
            self.flushes += 1

    def scan(self):
        for sstable in self.sstables:
            yield from sstable
        yield from self.memtable

    def compact(self) -> int:
        """Merge all sstables into one; returns tables merged."""
        merged_count = len(self.sstables)
        if merged_count > 1:
            merged: List[Dict[str, Any]] = []
            for sstable in self.sstables:
                merged.extend(sstable)
            self.sstables = [merged]
        return merged_count

    def rewrite(self, docs: List[Dict[str, Any]]) -> None:
        """Replace all contents (the delete path rewrites segments)."""
        self.sstables = [docs] if docs else []
        self.memtable = []

    def __len__(self) -> int:
        return len(self.memtable) + sum(len(s) for s in self.sstables)


class _ColumnNode:
    """One storage node."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.families: Dict[str, _ColumnFamily] = {}
        self.up = True

    def family(self, name: str) -> _ColumnFamily:
        if name not in self.families:
            self.families[name] = _ColumnFamily()
        return self.families[name]

    def has_family(self, name: str) -> bool:
        return name in self.families


class ColumnStoreCluster:
    """A sharded, replicated, write-optimised document store."""

    def __init__(
        self,
        n_nodes: int = 3,
        partition_key: str = "switch_id",
        replication: int = 2,
    ) -> None:
        if n_nodes < 1:
            raise DatabaseError("cluster needs at least one node")
        self.nodes = [_ColumnNode(i) for i in range(n_nodes)]
        self.partition_key = partition_key
        self.replication = min(max(1, replication), n_nodes)
        self._id_counter = 0
        self.writes = 0
        #: Bumped whenever results of a scan could change; the columnar
        #: frame cache keys on it.
        self._generation = 0
        #: collection -> (generation, columns-key, full-scan FeatureFrame).
        self._frame_cache: Dict[str, Tuple[int, Any, FeatureFrame]] = {}
        # Shares athena_distdb_ops_total with DatabaseCluster (the two are
        # interchangeable backends behind the FeatureManager).
        registry = get_telemetry().registry
        self._telemetry_on = registry.enabled
        self._metric_ops = registry.counter(
            "athena_distdb_ops_total",
            "Router operations served, by operation and collection.",
            labelnames=("op", "collection"),
        )

    def _count_op(self, op: str, collection: str) -> None:
        if self._telemetry_on:
            self._metric_ops.labels(op=op, collection=collection).inc()

    # -- routing -----------------------------------------------------------

    def _replica_nodes(self, key_value: Any) -> List[_ColumnNode]:
        start = _hash_value(key_value) % len(self.nodes)
        return [
            self.nodes[(start + offset) % len(self.nodes)]
            for offset in range(self.replication)
        ]

    def _live_nodes(self) -> List[_ColumnNode]:
        live = [n for n in self.nodes if n.up]
        if not live:
            raise DatabaseError("all column-store nodes are down")
        return live

    # -- writes ----------------------------------------------------------------

    def insert_one(self, collection: str, doc: Dict[str, Any]) -> Any:
        self._count_op("insert", collection)
        self._generation += 1
        stored = self._store_doc(doc)
        key_value = stored.get(self.partition_key, stored["_id"])
        primary, *replicas = self._replica_nodes(key_value)
        primary.family(collection).append(stored)
        for replica in replicas:
            if replica.up:
                # Replicas share the stored dict: the replication cost is a
                # pointer append (hinted-handoff style), not a deep copy.
                replica.family(collection + "__replica").append(stored)
        self.writes += 1
        return stored["_id"]

    def _store_doc(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        stored = dict(doc)
        if "_id" not in stored:
            self._id_counter += 1
            stored["_id"] = self._id_counter
        return stored

    def insert_many(self, collection: str, docs: List[Dict[str, Any]]) -> int:
        """Batch insert: one telemetry op, one route per partition key.

        Replica chains are resolved once per distinct partition-key value
        (the batch shape the feature writers produce is many docs per few
        switches), while documents still land in arrival order — so
        memtable contents, flush points, and scan order are identical to
        the per-doc loop's.
        """
        self._count_op("insert", collection)
        self._generation += 1
        replica_name = collection + "__replica"
        routes: Dict[Any, List[_ColumnNode]] = {}
        for doc in docs:
            stored = self._store_doc(doc)
            key_value = stored.get(self.partition_key, stored["_id"])
            try:
                chain = routes.get(key_value)
            except TypeError:  # unhashable key value: route directly
                chain = None
            else:
                if chain is None:
                    chain = self._replica_nodes(key_value)
                    routes[key_value] = chain
            if chain is None:
                chain = self._replica_nodes(key_value)
            chain[0].family(collection).append(stored)
            for replica in chain[1:]:
                if replica.up:
                    replica.family(replica_name).append(stored)
        self.writes += len(docs)
        return len(docs)

    def delete_many(self, collection: str, filter_: Optional[Dict[str, Any]] = None) -> int:
        self._count_op("delete", collection)
        validate_filter(filter_)
        self._generation += 1
        removed = 0
        for name in (collection, collection + "__replica"):
            for node in self._live_nodes():
                if not node.has_family(name):
                    continue
                family = node.family(name)
                kept = [
                    doc
                    for doc in family.scan()
                    if not _matches(doc, filter_)
                ]
                if name == collection:
                    removed += len(family) - len(kept)
                family.rewrite(kept)
        return removed

    def update_many(
        self, collection: str, filter_: Optional[Dict[str, Any]], changes: Dict[str, Any]
    ) -> int:
        self._count_op("update", collection)
        validate_filter(filter_)
        self._generation += 1
        touched = 0
        for node in self._live_nodes():
            if not node.has_family(collection):
                continue
            for doc in node.family(collection).scan():
                if _matches(doc, filter_):
                    doc.update(changes)
                    touched += 1
        return touched

    # -- reads --------------------------------------------------------------------

    def find(
        self,
        collection: str,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        projection: Optional[List[str]] = None,
    ) -> List[Dict[str, Any]]:
        self._count_op("find", collection)
        validate_filter(filter_)
        # Zero-copy read: filter the raw stored documents, sort and trim
        # the *references*, and copy only the post-limit survivors out.
        matched: List[Dict[str, Any]] = []
        for node in self._live_nodes():
            if node.has_family(collection):
                matched.extend(
                    filter_documents(node.family(collection).scan(), filter_)
                )
        if sort:
            sort_documents(matched, sort)
        if limit is not None:
            matched = matched[: max(0, limit)]
        results = [dict(doc) for doc in matched]
        if projection:
            keep = set(projection) | {"_id"}
            results = [
                {k: v for k, v in doc.items() if k in keep} for doc in results
            ]
        return results

    def frame(
        self,
        collection: str,
        columns: Optional[Tuple[str, ...]] = None,
    ) -> FeatureFrame:
        """Full-scan :class:`FeatureFrame` over the collection, cached.

        Columns are materialised once per store generation (any write
        invalidates) straight from the shared stored documents — the
        columnar path's answer to the store having no secondary indexes.
        Row order matches :meth:`find`'s pre-sort scan order exactly.
        """
        columns_key = tuple(columns) if columns is not None else None
        cached = self._frame_cache.get(collection)
        if cached is not None:
            generation, cached_key, frame = cached
            if generation == self._generation and cached_key == columns_key:
                return frame
        docs = [
            doc
            for node in self._live_nodes()
            if node.has_family(collection)
            for doc in node.family(collection).scan()
        ]
        frame = FeatureFrame.from_documents(docs, columns)
        self._frame_cache[collection] = (self._generation, columns_key, frame)
        return frame

    def find_frame(
        self,
        collection: str,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        columns: Optional[Tuple[str, ...]] = None,
    ) -> FeatureFrame:
        """Vectorised find: scan → boolean mask → argsort → head.

        Selects exactly the rows :meth:`find` returns, in the same order,
        as a frame over the shared stored documents (no copies).
        """
        self._count_op("find_frame", collection)
        validate_filter(filter_)
        frame = self.frame(collection, columns)
        if filter_:
            frame = frame.mask(filter_mask(frame, filter_))
        if sort:
            frame = frame.sort(sort)
        if limit is not None:
            frame = frame.head(limit)
        return frame

    def count(self, collection: str, filter_: Optional[Dict[str, Any]] = None) -> int:
        self._count_op("count", collection)
        validate_filter(filter_)
        return sum(
            1
            for node in self._live_nodes()
            if node.has_family(collection)
            for _doc in filter_documents(node.family(collection).scan(), filter_)
        )

    def aggregate(
        self, collection: str, pipeline: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        self._count_op("aggregate", collection)
        docs = [
            doc
            for node in self._live_nodes()
            if node.has_family(collection)
            for doc in node.family(collection).scan()
        ]
        return _aggregate(docs, pipeline)

    # -- administration ----------------------------------------------------------------

    def create_index(self, collection: str, *fields: str) -> None:
        """No-op: the write-optimised store has no secondary indexes."""

    def document_count(self) -> int:
        return sum(
            len(family)
            for node in self.nodes
            for name, family in node.families.items()
            if not name.endswith("__replica")
        )

    def compact_all(self) -> int:
        """Run compaction everywhere; returns segments merged."""
        return sum(
            family.compact()
            for node in self.nodes
            for family in node.families.values()
        )

    def fail_node(self, node_id: int) -> None:
        self.nodes[node_id].up = False
        self._generation += 1

    def recover_node(self, node_id: int) -> None:
        self.nodes[node_id].up = True
        self._generation += 1

    def op_stats(self) -> Dict[str, Any]:
        return {
            "writes": self.writes,
            "flushes": sum(
                family.flushes
                for node in self.nodes
                for family in node.families.values()
            ),
        }


def _matches(doc: Dict[str, Any], filter_: Optional[Dict[str, Any]]) -> bool:
    from repro.distdb.query import matches_filter

    return matches_filter(doc, filter_)
