"""A single-node document collection with hash indexes.

Documents are plain dicts; inserting copies them and assigns an ``_id``.
Equality lookups on indexed fields use the hash index; everything else scans.
The collection also counts operations and approximate bytes handled, which
the Cbench experiment uses to report where overhead went.

Reads are zero-copy (docs/PERF.md): ``find`` filters the raw stored
documents, memoizes each document's byte estimate per ``_id``
(invalidated on update/delete), sorts and limits *before* copying, and
only the surviving documents are copied out.  Compound ``(field, field)``
hash indexes serve the feature store's per-flow queries, whose filters
pin a pair of fields inside an ``$and``.  The original copy-then-trim
read path lives on in ``tests/oracles.py`` as the differential oracle:
it returns identical results and identical byte accounting.
"""

# athena-lint: hot-path

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.distdb.query import (
    collect_equality_pins,
    filter_documents,
    get_path,
    matches_filter,
    sort_documents,
    validate_filter,
)
from repro.errors import DatabaseError

_id_counter = itertools.count(1)


def approx_size(doc: Dict[str, Any]) -> int:
    """Rough BSON-like size estimate used for byte accounting."""
    size = 8
    for key, value in doc.items():
        size += len(key) + 2
        if isinstance(value, str):
            size += len(value) + 5
        elif isinstance(value, (int, float, bool)) or value is None:
            size += 9
        elif isinstance(value, dict):
            size += approx_size(value)
        elif isinstance(value, (list, tuple)):
            size += 5 + 9 * len(value)
        else:
            size += 16
    return size


class Collection:
    """An in-memory document collection."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._docs: Dict[Any, Dict[str, Any]] = {}
        #: field -> value -> bucket of _ids.  Buckets are dicts used as
        #: insertion-ordered sets, so an index-served read returns
        #: documents in write order (insert or latest update), whatever
        #: their ``_id`` values — the order a full scan visits them in.
        self._indexes: Dict[str, Dict[Any, Dict[Any, None]]] = {}
        #: (field, ...) tuple -> value tuple -> _ids; maintained alongside
        #: the single-field indexes and consulted first when a filter pins
        #: every field of the compound key.
        self._compound_indexes: Dict[
            Tuple[str, ...], Dict[Tuple[Any, ...], Dict[Any, None]]
        ] = {}
        #: _id -> memoized approx_size of the stored document.
        self._size_cache: Dict[Any, int] = {}
        # Operation accounting.
        self.ops = defaultdict(int)
        self.bytes_written = 0
        self.bytes_read = 0

    def __len__(self) -> int:
        return len(self._docs)

    # -- indexing ----------------------------------------------------------

    def create_index(self, *fields: str) -> None:
        """Build (or rebuild) a hash index over ``fields``.

        One field builds the classic single-field index; several build a
        compound index keyed on the tuple of their values.
        """
        if not fields:
            raise DatabaseError("create_index needs at least one field")
        if len(fields) == 1:
            field = fields[0]
            index: Dict[Any, Dict[Any, None]] = defaultdict(dict)
            for _id, doc in self._docs.items():
                index[get_path(doc, field)][_id] = None
            self._indexes[field] = index
            return
        compound: Dict[Tuple[Any, ...], Dict[Any, None]] = defaultdict(dict)
        for _id, doc in self._docs.items():
            compound[tuple(get_path(doc, f) for f in fields)][_id] = None
        self._compound_indexes[tuple(fields)] = compound

    def _index_add(self, doc: Dict[str, Any]) -> None:
        for field, index in self._indexes.items():
            index.setdefault(get_path(doc, field), {})[doc["_id"]] = None
        for fields, index in self._compound_indexes.items():
            key = tuple(get_path(doc, f) for f in fields)
            index.setdefault(key, {})[doc["_id"]] = None

    def _index_remove(self, doc: Dict[str, Any]) -> None:
        for field, index in self._indexes.items():
            bucket = index.get(get_path(doc, field))
            if bucket is not None:
                bucket.pop(doc["_id"], None)
        for fields, index in self._compound_indexes.items():
            bucket = index.get(tuple(get_path(doc, f) for f in fields))
            if bucket is not None:
                bucket.pop(doc["_id"], None)

    # -- writes --------------------------------------------------------------

    def insert_one(self, doc: Dict[str, Any]) -> Any:
        if not isinstance(doc, dict):
            raise DatabaseError("documents must be dicts")
        stored = dict(doc)
        if "_id" not in stored:
            stored["_id"] = next(_id_counter)
        if stored["_id"] in self._docs:
            raise DatabaseError(f"duplicate _id {stored['_id']!r}")
        self._docs[stored["_id"]] = stored
        self._index_add(stored)
        self.ops["insert"] += 1
        size = approx_size(stored)
        self._size_cache[stored["_id"]] = size
        self.bytes_written += size
        return stored["_id"]

    def insert_many(self, docs: Iterable[Dict[str, Any]]) -> List[Any]:
        return [self.insert_one(doc) for doc in docs]

    def delete_many(self, filter_: Optional[Dict[str, Any]] = None) -> int:
        validate_filter(filter_)
        doomed = [doc["_id"] for doc in self._candidates(filter_) if matches_filter(doc, filter_)]
        for _id in doomed:
            doc = self._docs.pop(_id)
            self._index_remove(doc)
            self._size_cache.pop(_id, None)
        self.ops["delete"] += 1
        return len(doomed)

    def update_many(
        self, filter_: Optional[Dict[str, Any]], changes: Dict[str, Any]
    ) -> int:
        """Set top-level fields on every matching document."""
        validate_filter(filter_)
        touched = 0
        for doc in list(self._candidates(filter_)):
            if matches_filter(doc, filter_):
                _id = doc["_id"]
                self._index_remove(doc)
                doc.update(changes)
                # The update re-files the document as the latest write in
                # the scan order as in every index bucket, so indexed and
                # scanning reads return matches in the same order.
                self._docs[_id] = self._docs.pop(_id)
                self._index_add(doc)
                self._size_cache.pop(_id, None)
                touched += 1
        self.ops["update"] += 1
        return touched

    # -- reads -----------------------------------------------------------------

    def _approx_size_cached(self, doc: Dict[str, Any]) -> int:
        _id = doc["_id"]
        size = self._size_cache.get(_id)
        if size is None:
            size = approx_size(doc)
            self._size_cache[_id] = size
        return size

    def _candidates(
        self, filter_: Optional[Dict[str, Any]]
    ) -> Iterable[Dict[str, Any]]:
        """Use a hash index when the filter pins an indexed field.

        ``None`` is a legitimate pinned value (the sentinel-based pin
        extraction keeps "pinned to None" distinct from "not pinned"); pins
        inside ``$and`` conjuncts count, and compound indexes are
        consulted before single-field ones.
        """
        pins = collect_equality_pins(filter_)
        if pins:
            for fields, index in self._compound_indexes.items():
                if all(f in pins for f in fields):
                    try:
                        ids = index.get(tuple(pins[f] for f in fields), ())
                    except TypeError:
                        continue
                    return [self._docs[_id] for _id in ids if _id in self._docs]
            for field in self._indexes:
                if field in pins:
                    try:
                        ids = self._indexes[field].get(pins[field], ())
                    except TypeError:
                        continue
                    return [self._docs[_id] for _id in ids if _id in self._docs]
        return self._docs.values()

    def raw_candidates(
        self, filter_: Optional[Dict[str, Any]] = None
    ) -> List[Dict[str, Any]]:
        """Raw *stored* documents the filter could match, never copied.

        The columnar frame path (docs/PERF.md) scans these straight into
        numpy columns; callers must treat the dicts as read-only.  Order
        is exactly the order ``find`` evaluates candidates in — index
        buckets first when the filter pins an indexed field, insertion
        order otherwise — which is what keeps frame rows byte-aligned
        with document-path results.
        """
        validate_filter(filter_)
        candidates = self._candidates(filter_)
        return candidates if isinstance(candidates, list) else list(candidates)

    def find(
        self,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        projection: Optional[List[str]] = None,
    ) -> List[Dict[str, Any]]:
        """Query the collection. ``sort`` is a list of (field, +1/-1)."""
        validate_filter(filter_)
        self.ops["find"] += 1
        matched = list(filter_documents(self._candidates(filter_), filter_))
        # Byte accounting covers every matched document (pre-limit), with
        # the same totals as a copy-every-match read — just memoized.
        self.bytes_read += sum(self._approx_size_cached(d) for d in matched)
        if sort:
            sort_documents(matched, sort)
        if limit is not None:
            matched = matched[: max(0, limit)]
        results = [dict(doc) for doc in matched]
        if projection:
            keep = set(projection) | {"_id"}
            results = [{k: v for k, v in doc.items() if k in keep} for doc in results]
        return results

    def count(self, filter_: Optional[Dict[str, Any]] = None) -> int:
        validate_filter(filter_)
        self.ops["count"] += 1
        return sum(
            1 for _ in filter_documents(self._candidates(filter_), filter_)
        )

    def all_documents(self) -> List[Dict[str, Any]]:
        """Snapshot of every stored document (aggregation input)."""
        return list(self._docs.values())
