"""Priority-ordered flow tables.

Lookup semantics follow the OpenFlow specification: the highest-priority
entry whose match covers the packet wins; among equal priorities the more
specific match wins (a deterministic tie-break the spec leaves undefined).
The table also implements strict/non-strict modify and delete, and timeout
scanning that yields evicted entries so the switch can emit FLOW_REMOVED.

Besides the precedence-sorted entry list, the table keeps three
auxiliary structures in sync (docs/PERF.md): an exact-match hash index
from a match's full header tuple to its entries, a priority-ordered
bucket of wildcard entries consulted only up to the exact hit's
precedence, and a lazy min-heap of expiry deadlines so an idle table
costs O(1) per timeout tick.  Inserts bisect into the sorted list
instead of re-sorting.  Evictions and stats selections are reported in
precedence order.  The original linear-scan table lives on in
``tests/oracles.py`` as the differential oracle for all of this.
"""

# athena-lint: hot-path

from __future__ import annotations

import heapq
from bisect import bisect_left, insort_right
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import DataPlaneError
from repro.openflow.constants import FlowRemovedReason
from repro.openflow.flow import FlowEntry
from repro.openflow.match import MATCH_FIELDS, Match

#: Header names probed by the exact-match index, frozen locally so the
#: lookup loop never re-reads the module global.
_FIELDS = MATCH_FIELDS


class FlowTable:
    """One flow table of a switch."""

    def __init__(self, table_id: int = 0, max_entries: int = 65536) -> None:
        self.table_id = table_id
        self.max_entries = max_entries
        #: Every entry, precedence-sorted.
        self._entries: List[FlowEntry] = []
        self.lookup_count = 0
        self.matched_count = 0
        #: Match key tuple -> entries with exactly that match, best first.
        self._by_match: Dict[Tuple[Any, ...], List[FlowEntry]] = {}
        #: Entries with at least one wildcarded field, precedence-sorted.
        self._wildcards: List[FlowEntry] = []
        #: Lazy expiry heap of (deadline, seq, entry); stale items are
        #: dropped on pop by checking the entry is still live.
        self._heap: List[Tuple[float, int, FlowEntry]] = []
        self._live: Dict[int, FlowEntry] = {}
        self._heap_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(list(self._entries))

    @property
    def entries(self) -> List[FlowEntry]:
        """Entries in match-precedence order (copy)."""
        return list(self._entries)

    # -- index maintenance -------------------------------------------------

    def _index_insert(self, entry: FlowEntry) -> None:
        insort_right(self._entries, entry, key=FlowEntry.sort_key)
        key = entry.match.key_tuple()
        bucket = self._by_match.setdefault(key, [])
        position = 0
        sort_key = entry.sort_key()
        while position < len(bucket) and bucket[position].sort_key() <= sort_key:
            position += 1
        bucket.insert(position, entry)
        if entry.match.specificity() < len(_FIELDS):
            insort_right(self._wildcards, entry, key=FlowEntry.sort_key)
        self._live[id(entry)] = entry
        deadline = self._next_deadline(entry)
        if deadline is not None:
            self._heap_seq += 1
            heapq.heappush(self._heap, (deadline, self._heap_seq, entry))

    def _index_remove(self, entry: FlowEntry) -> None:
        self._remove_from_sorted(self._entries, entry)
        key = entry.match.key_tuple()
        bucket = self._by_match.get(key)
        if bucket is not None:
            bucket[:] = [e for e in bucket if e is not entry]
            if not bucket:
                del self._by_match[key]
        if entry.match.specificity() < len(_FIELDS):
            self._remove_from_sorted(self._wildcards, entry)
        self._live.pop(id(entry), None)
        # Any heap item for the entry goes stale and is skipped on pop.

    @staticmethod
    def _remove_from_sorted(entries: List[FlowEntry], entry: FlowEntry) -> None:
        """Remove ``entry`` (by identity) from a precedence-sorted list."""
        position = bisect_left(entries, entry.sort_key(), key=FlowEntry.sort_key)
        for index in range(position, len(entries)):
            if entries[index] is entry:
                del entries[index]
                return
        # Defensive: identity not found at its sort position (should not
        # happen); fall back to a full identity scan.
        for index, existing in enumerate(entries):
            if existing is entry:
                del entries[index]
                return

    @staticmethod
    def _next_deadline(entry: FlowEntry) -> Optional[float]:
        """Earliest instant the entry could expire, or None if immortal."""
        deadline: Optional[float] = None
        if entry.hard_timeout > 0:
            deadline = entry.stats.install_time + entry.hard_timeout
        if entry.idle_timeout > 0:
            reference = max(entry.stats.last_packet_time, entry.stats.install_time)
            idle_deadline = reference + entry.idle_timeout
            if deadline is None or idle_deadline < deadline:
                deadline = idle_deadline
        return deadline

    # -- writes ------------------------------------------------------------

    def insert(self, entry: FlowEntry, now: float) -> FlowEntry:
        """Add an entry; an identical (match, priority) pair is replaced,
        preserving OpenFlow overlap semantics for ADD.

        Capacity is checked after the replaced entry is gone, so a
        re-issued ADD on a full table replaces instead of failing.
        """
        for existing in list(self._by_match.get(entry.match.key_tuple(), ())):
            if existing.priority == entry.priority:
                self._index_remove(existing)
        if len(self._entries) >= self.max_entries:
            raise DataPlaneError(
                f"flow table {self.table_id} full ({self.max_entries} entries)"
            )
        entry.table_id = self.table_id
        entry.stats.install_time = now
        entry.stats.last_packet_time = now
        self._index_insert(entry)
        return entry

    # -- lookup ------------------------------------------------------------

    def lookup(self, headers: Dict[str, Any]) -> Optional[FlowEntry]:
        """Find the winning entry for a packet-header dict."""
        self.lookup_count += 1
        get = headers.get
        try:
            bucket = self._by_match.get((
                get("in_port"),
                get("eth_src"),
                get("eth_dst"),
                get("eth_type"),
                get("vlan_id"),
                get("ip_src"),
                get("ip_dst"),
                get("ip_proto"),
                get("ip_tos"),
                get("tcp_src"),
                get("tcp_dst"),
            ))
        except TypeError:
            # Unhashable header value: no exact entry can cover it either,
            # so the wildcard scan below decides alone.
            bucket = None
        exact = bucket[0] if bucket else None
        if exact is None:
            for candidate in self._wildcards:
                if candidate.match.matches(headers):
                    self.matched_count += 1
                    return candidate
            return None
        # The exact hit has maximal specificity among covering entries, so
        # only strictly higher-precedence wildcards can still beat it.
        limit = exact.sort_key()
        for candidate in self._wildcards:
            if candidate.sort_key() >= limit:
                break
            if candidate.match.matches(headers):
                self.matched_count += 1
                return candidate
        self.matched_count += 1
        return exact

    # -- modify / delete ----------------------------------------------------

    def modify(
        self,
        match: Match,
        actions,
        priority: Optional[int] = None,
        strict: bool = False,
    ) -> int:
        """MODIFY / MODIFY_STRICT: update actions of covered entries.

        Returns the number of entries touched.  Non-strict modify touches
        every entry whose match is a subset of ``match``; strict requires an
        exact (match, priority) pair and resolves its targets through the
        same exact-match index insert uses.  Entries are visited in
        precedence order.
        """
        if strict:
            targets = [
                entry
                for entry in self._by_match.get(match.key_tuple(), ())
                if priority is None or entry.priority == priority
            ]
        else:
            targets = [e for e in self._entries if e.match.is_subset_of(match)]
        for entry in targets:
            entry.actions = list(actions)
        return len(targets)

    def delete(
        self,
        match: Match,
        priority: Optional[int] = None,
        strict: bool = False,
        out_port: Optional[int] = None,
    ) -> List[FlowEntry]:
        """DELETE / DELETE_STRICT: remove covered entries and return them."""
        removed: List[FlowEntry] = []
        for entry in self._entries:
            if strict:
                hit = entry.match == match and (
                    priority is None or entry.priority == priority
                )
            else:
                hit = entry.match.is_subset_of(match)
            if hit and out_port is not None:
                # Management path (flow-mod, not per-packet); the dynamic
                # port probe across action kinds is fine here.
                hit = any(
                    getattr(action, "port", None) == out_port  # athena-lint: disable=ATH602
                    for action in entry.actions
                )
            if hit:
                removed.append(entry)
        for entry in removed:
            self._index_remove(entry)
        return removed

    # -- expiry --------------------------------------------------------------

    def expire(self, now: float) -> List[Tuple[FlowEntry, FlowRemovedReason]]:
        """Evict timed-out entries, returning them with the eviction reason.

        Evictions are reported in precedence order.  The deadline heap is
        consulted first, so a tick with nothing to evict costs O(1)
        regardless of table size.
        """
        heap = self._heap
        doomed: Dict[int, FlowRemovedReason] = {}
        while heap and heap[0][0] <= now:
            _deadline, _seq, entry = heapq.heappop(heap)
            if self._live.get(id(entry)) is not entry:
                continue  # removed or replaced since scheduling
            if entry.is_hard_expired(now):
                doomed[id(entry)] = FlowRemovedReason.HARD_TIMEOUT
            elif entry.is_idle_expired(now):
                doomed[id(entry)] = FlowRemovedReason.IDLE_TIMEOUT
            else:
                # Traffic pushed the idle deadline out; reschedule.  The
                # new deadline is strictly in the future, so this loop
                # always terminates.
                deadline = self._next_deadline(entry)
                if deadline is not None:
                    self._heap_seq += 1
                    heapq.heappush(heap, (deadline, self._heap_seq, entry))
        if not doomed:
            return []
        expired = [
            (entry, doomed[id(entry)])
            for entry in self._entries
            if id(entry) in doomed
        ]
        for entry, _reason in expired:
            self._index_remove(entry)
        return expired

    # -- queries -------------------------------------------------------------

    def find(self, match: Match, priority: Optional[int] = None) -> Optional[FlowEntry]:
        """Exact (match, priority) lookup, for tests and the controller."""
        for entry in self._by_match.get(match.key_tuple(), ()):
            if priority is None or entry.priority == priority:
                return entry
        return None

    def select(self, match: Match) -> Iterable[FlowEntry]:
        """Entries whose match is a subset of ``match`` (stats filtering)."""
        return [e for e in self._entries if e.match.is_subset_of(match)]
