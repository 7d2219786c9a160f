"""Reference implementations of the hot paths, kept as test oracles.

``src/`` carries one implementation of each per-packet and per-query
hot path: the indexed :class:`~repro.dataplane.flowtable.FlowTable`, the
compiled :meth:`~repro.openflow.match.Match.matches` predicate and the
zero-copy ``find`` of :class:`~repro.distdb.collection.Collection` and
:class:`~repro.distdb.columnstore.ColumnStoreCluster`.  The code below is
the original straightforward version of each — linear scans, per-call
field introspection, copy-then-trim reads — moved here unchanged so the
optimised code can be checked against it:

* ``tests/test_oracle_differential.py`` drives both sides with
  Hypothesis-generated operation sequences and compares every result;
* ``tests/test_fastpath_equivalence.py`` runs whole scenarios with the
  oracles installed (:func:`install`) and compares telemetry snapshots
  byte for byte;
* ``benchmarks/bench_hotpath.py`` times the oracles as its reference side.

The oracle functions are written as unbound methods (``self`` first), so
they can be called directly on a real instance or patched onto its class.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.dataplane import switch as _switch_module
from repro.distdb.collection import Collection, approx_size
from repro.distdb.columnstore import ColumnStoreCluster
from repro.distdb.query import (
    MISSING,
    equality_pin,
    filter_documents,
    sort_documents,
    validate_filter,
)
from repro.errors import DataPlaneError
from repro.openflow.constants import FlowRemovedReason
from repro.openflow.flow import FlowEntry
from repro.openflow.match import Match

# -- flow table --------------------------------------------------------------


class ReferenceFlowTable:
    """The linear-scan flow table: same surface as ``FlowTable``."""

    def __init__(self, table_id: int = 0, max_entries: int = 65536) -> None:
        self.table_id = table_id
        self.max_entries = max_entries
        self._entries: List[FlowEntry] = []
        self._sorted = True
        self.lookup_count = 0
        self.matched_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        self._ensure_sorted()
        return iter(list(self._entries))

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._entries.sort(key=FlowEntry.sort_key)
            self._sorted = True

    @property
    def entries(self) -> List[FlowEntry]:
        self._ensure_sorted()
        return list(self._entries)

    def insert(self, entry: FlowEntry, now: float) -> FlowEntry:
        self._entries = [
            existing
            for existing in self._entries
            if not (
                existing.priority == entry.priority
                and existing.match == entry.match
            )
        ]
        # Capacity counts after the replaced entry is gone, so re-issuing
        # an ADD on a full table replaces instead of failing.
        if len(self._entries) >= self.max_entries:
            raise DataPlaneError(
                f"flow table {self.table_id} full ({self.max_entries} entries)"
            )
        entry.table_id = self.table_id
        entry.stats.install_time = now
        entry.stats.last_packet_time = now
        self._entries.append(entry)
        self._sorted = False
        return entry

    def lookup(self, headers: Dict[str, Any]) -> Optional[FlowEntry]:
        self._ensure_sorted()
        self.lookup_count += 1
        for entry in self._entries:
            if entry.match.matches(headers):
                self.matched_count += 1
                return entry
        return None

    def modify(
        self,
        match: Match,
        actions,
        priority: Optional[int] = None,
        strict: bool = False,
    ) -> int:
        self._ensure_sorted()
        touched = 0
        for entry in self._entries:
            if strict:
                hit = entry.match == match and (
                    priority is None or entry.priority == priority
                )
            else:
                hit = entry.match.is_subset_of(match)
            if hit:
                entry.actions = list(actions)
                touched += 1
        return touched

    def delete(
        self,
        match: Match,
        priority: Optional[int] = None,
        strict: bool = False,
        out_port: Optional[int] = None,
    ) -> List[FlowEntry]:
        self._ensure_sorted()
        kept: List[FlowEntry] = []
        removed: List[FlowEntry] = []
        for entry in self._entries:
            if strict:
                hit = entry.match == match and (
                    priority is None or entry.priority == priority
                )
            else:
                hit = entry.match.is_subset_of(match)
            if hit and out_port is not None:
                hit = any(
                    getattr(action, "port", None) == out_port
                    for action in entry.actions
                )
            (removed if hit else kept).append(entry)
        self._entries = kept
        return removed

    def expire(self, now: float) -> List[Tuple[FlowEntry, FlowRemovedReason]]:
        self._ensure_sorted()
        expired: List[Tuple[FlowEntry, FlowRemovedReason]] = []
        kept: List[FlowEntry] = []
        for entry in self._entries:
            if entry.is_hard_expired(now):
                expired.append((entry, FlowRemovedReason.HARD_TIMEOUT))
            elif entry.is_idle_expired(now):
                expired.append((entry, FlowRemovedReason.IDLE_TIMEOUT))
            else:
                kept.append(entry)
        self._entries = kept
        return expired

    def find(self, match: Match, priority: Optional[int] = None) -> Optional[FlowEntry]:
        self._ensure_sorted()
        for entry in self._entries:
            if entry.match == match and (
                priority is None or entry.priority == priority
            ):
                return entry
        return None

    def select(self, match: Match) -> Iterable[FlowEntry]:
        self._ensure_sorted()
        return [e for e in self._entries if e.match.is_subset_of(match)]


# -- match -------------------------------------------------------------------


def match_matches(self: Match, headers: Dict[str, Any]) -> bool:
    """The introspecting ``Match.matches``."""
    for field_ in fields(self):
        wanted = getattr(self, field_.name)
        if wanted is None:
            continue
        if headers.get(field_.name) != wanted:
            return False
    return True


# -- document stores ---------------------------------------------------------


def collection_candidates(
    self: Collection, filter_: Optional[Dict[str, Any]]
) -> Iterable[Dict[str, Any]]:
    """``Collection._candidates`` with top-level single-field pins only."""
    for field in self._indexes:
        value = equality_pin(filter_, field)
        if value is not MISSING:
            try:
                ids = self._indexes[field].get(value, ())
            except TypeError:  # unhashable pin value
                continue
            return [self._docs[_id] for _id in ids if _id in self._docs]
    return self._docs.values()


def collection_find(
    self: Collection,
    filter_: Optional[Dict[str, Any]] = None,
    sort: Optional[List[Tuple[str, int]]] = None,
    limit: Optional[int] = None,
    projection: Optional[List[str]] = None,
) -> List[Dict[str, Any]]:
    """The copy-then-trim ``Collection.find``."""
    validate_filter(filter_)
    self.ops["find"] += 1
    results = [
        dict(doc)
        for doc in filter_documents(collection_candidates(self, filter_), filter_)
    ]
    self.bytes_read += sum(approx_size(d) for d in results)
    if sort:
        sort_documents(results, sort)
    if limit is not None:
        results = results[: max(0, limit)]
    if projection:
        keep = set(projection) | {"_id"}
        results = [{k: v for k, v in doc.items() if k in keep} for doc in results]
    return results


def columnstore_find(
    self: ColumnStoreCluster,
    collection: str,
    filter_: Optional[Dict[str, Any]] = None,
    sort: Optional[List[Tuple[str, int]]] = None,
    limit: Optional[int] = None,
    projection: Optional[List[str]] = None,
) -> List[Dict[str, Any]]:
    """The copy-then-trim ``ColumnStoreCluster.find``."""
    self._count_op("find", collection)
    validate_filter(filter_)
    results: List[Dict[str, Any]] = []
    for node in self._live_nodes():
        if node.has_family(collection):
            results.extend(
                dict(doc)
                for doc in filter_documents(
                    node.family(collection).scan(), filter_
                )
            )
    if sort:
        sort_documents(results, sort)
    if limit is not None:
        results = results[: max(0, limit)]
    if projection:
        keep = set(projection) | {"_id"}
        results = [
            {k: v for k, v in doc.items() if k in keep} for doc in results
        ]
    return results


def install(monkeypatch) -> None:
    """Route every hot path through its oracle for one test.

    Switches built afterwards get :class:`ReferenceFlowTable` tables;
    matches, collection reads and column-store reads take the reference
    code at once.  ``monkeypatch`` undoes it all when the test ends.
    """
    monkeypatch.setattr(_switch_module, "FlowTable", ReferenceFlowTable)
    monkeypatch.setattr(Match, "matches", match_matches)
    monkeypatch.setattr(Collection, "_candidates", collection_candidates)
    monkeypatch.setattr(Collection, "find", collection_find)
    monkeypatch.setattr(ColumnStoreCluster, "find", columnstore_find)
