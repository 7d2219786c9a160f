"""Differential tests: the shipped hot paths against ``tests/oracles.py``.

Hypothesis drives the indexed flow table, the compiled match predicate
and the zero-copy document reads side by side with the reference code
they replaced, and every observable result has to agree: winners,
counters, evictions and their order, query results and byte accounting.
The value domains are small on purpose, so that generated rules overlap,
shadow and tie on priority, and generated queries hit index buckets.
"""

from hypothesis import example, given, settings, strategies as st

from repro.dataplane.flowtable import FlowTable
from repro.distdb.collection import Collection
from repro.distdb.columnstore import ColumnStoreCluster
from repro.errors import DataPlaneError
from repro.openflow import ActionOutput, Match
from repro.openflow.flow import FlowEntry
from tests import oracles

# -- packet headers and matches ----------------------------------------------

_HEADER_VALUES = {
    "in_port": [1, 2],
    "eth_src": ["00:00:00:00:00:01", "00:00:00:00:00:02"],
    "eth_dst": ["00:00:00:00:00:03"],
    "eth_type": [0x0800, 0x0806],
    "vlan_id": [0],
    "ip_src": ["10.0.0.1", "10.0.0.2"],
    "ip_dst": ["10.0.1.1"],
    "ip_proto": [6, 17],
    "ip_tos": [0],
    "tcp_src": [1000],
    "tcp_dst": [80, 443],
}

_full_headers = st.fixed_dictionaries(
    {name: st.sampled_from(values) for name, values in _HEADER_VALUES.items()}
)
_partial_headers = st.fixed_dictionaries(
    {},
    optional={
        name: st.sampled_from(values) for name, values in _HEADER_VALUES.items()
    },
)
_headers = st.one_of(_full_headers, _partial_headers)
# Wildcards over a few fields only, so that several of them cover the
# same packet and precedence decides.
_sparse_matches = st.fixed_dictionaries(
    {},
    optional={
        name: st.sampled_from(_HEADER_VALUES[name])
        for name in ("in_port", "ip_src", "ip_proto", "tcp_dst")
    },
).map(Match.from_dict)
_matches = st.one_of(
    _full_headers.map(Match.exact_from_headers),
    _sparse_matches,
    _partial_headers.map(Match.from_dict),
)
# Header dicts a match must also survive: absent keys, None and values
# outside the rule domain.
_odd_headers = st.fixed_dictionaries(
    {},
    optional={
        name: st.sampled_from(values + [None, 7, "x"])
        for name, values in _HEADER_VALUES.items()
    },
)


class TestMatchOracle:
    @given(_matches, st.one_of(_headers, _odd_headers))
    def test_matches_agrees(self, match, headers):
        assert match.matches(headers) == oracles.match_matches(match, headers)


# -- flow tables -------------------------------------------------------------

_priorities = st.integers(min_value=0, max_value=3)
_timeouts = st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0, 2.5])
_ports = st.integers(min_value=1, max_value=2)

_flow_ops = st.one_of(
    st.tuples(st.just("insert"), _matches, _priorities, _timeouts, _timeouts, _ports),
    st.tuples(st.just("lookup"), _headers),
    st.tuples(st.just("modify"), _matches, st.none() | _priorities, st.booleans(), _ports),
    st.tuples(
        st.just("delete"), _matches, st.none() | _priorities, st.booleans(),
        st.none() | _ports,
    ),
    # Decimal steps, so deadlines land on sums that round.
    st.tuples(st.just("tick"), st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7, 1.0])),
    st.tuples(st.just("find"), _matches, st.none() | _priorities),
    st.tuples(st.just("select"), _matches),
)


def _signature(entry):
    if entry is None:
        return None
    return (
        entry.priority,
        entry.match.key_tuple(),
        tuple(entry.actions),
        entry.idle_timeout,
        entry.hard_timeout,
        entry.table_id,
        entry.stats.install_time,
        entry.stats.last_packet_time,
        entry.stats.packet_count,
    )


def _apply(table, op, now):
    """Run one operation; returns a comparable outcome."""
    kind = op[0]
    if kind == "insert":
        _, match, priority, idle, hard, port = op
        entry = FlowEntry(
            match=match, priority=priority, actions=[ActionOutput(port=port)],
            idle_timeout=idle, hard_timeout=hard,
        )
        try:
            return _signature(table.insert(entry, now))
        except DataPlaneError as exc:
            return ("full", str(exc))
    if kind == "lookup":
        winner = table.lookup(op[1])
        if winner is not None:
            # Traffic on the winner pushes its idle deadline out.
            winner.stats.record(64, now)
        return _signature(winner)
    if kind == "modify":
        _, match, priority, strict, port = op
        return table.modify(match, [ActionOutput(port=port)], priority, strict)
    if kind == "delete":
        _, match, priority, strict, out_port = op
        removed = table.delete(match, priority, strict, out_port)
        return [_signature(e) for e in removed]
    if kind == "tick":
        return [(_signature(e), reason) for e, reason in table.expire(now)]
    if kind == "find":
        return _signature(table.find(op[1], op[2]))
    return [_signature(e) for e in table.select(op[1])]


class TestFlowTableOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(_flow_ops, min_size=1, max_size=40),
    )
    # A hard deadline at 0.2 + 0.5, where ``now - install < timeout``.
    @example(
        max_entries=2,
        ops=[("tick", 0.2), ("insert", Match(tcp_dst=80), 1, 0.0, 0.5, 1),
             ("tick", 0.5)],
    )
    # An idle deadline pushed out by traffic, then due on a rounded sum.
    @example(
        max_entries=2,
        ops=[("insert", Match(tcp_dst=80), 1, 0.5, 0.0, 1), ("tick", 0.2),
             ("lookup", {"tcp_dst": 80}), ("tick", 0.5)],
    )
    # A wildcard installed after a lower-priority one still shadows it.
    @example(
        max_entries=4,
        ops=[("insert", Match(ip_proto=6), 1, 0.0, 0.0, 1),
             ("insert", Match(tcp_dst=80), 2, 0.0, 0.0, 2),
             ("lookup", {"ip_proto": 6, "tcp_dst": 80})],
    )
    # A re-issued ADD on a full table replaces the entry.
    @example(
        max_entries=1,
        ops=[("insert", Match(tcp_dst=80), 1, 0.0, 0.0, 1),
             ("insert", Match(tcp_dst=80), 1, 0.0, 0.0, 2)],
    )
    def test_operation_sequences_agree(self, max_entries, ops):
        table = FlowTable(max_entries=max_entries)
        oracle = oracles.ReferenceFlowTable(max_entries=max_entries)
        now = 0.0
        for op in ops:
            if op[0] == "tick":
                now += op[1]
            assert _apply(table, op, now) == _apply(oracle, op, now), op
            assert [_signature(e) for e in table.entries] == [
                _signature(e) for e in oracle.entries
            ]
            assert (table.lookup_count, table.matched_count) == (
                oracle.lookup_count,
                oracle.matched_count,
            )


# -- document stores ---------------------------------------------------------

_values = st.sampled_from([0, 1, 2, None])
_documents = st.lists(
    st.fixed_dictionaries(
        {"n": st.integers(min_value=0, max_value=9)},
        optional={"a": _values, "b": _values, "tag": st.sampled_from(["x", "yy"])},
    ),
    max_size=25,
)
_pins = st.one_of(
    st.tuples(st.sampled_from(["a", "b"]), _values).map(lambda p: {p[0]: p[1]}),
    st.tuples(st.sampled_from(["a", "b"]), _values).map(
        lambda p: {p[0]: {"$eq": p[1]}}
    ),
)
_conditions = st.one_of(
    _pins,
    st.integers(min_value=0, max_value=9).map(lambda k: {"n": {"$gt": k}}),
    st.lists(_values, min_size=1, max_size=3).map(lambda vs: {"a": {"$in": vs}}),
    st.booleans().map(lambda b: {"tag": {"$exists": b}}),
)
_filters = st.one_of(
    st.none(),
    st.just({}),
    _conditions,
    st.lists(_conditions, min_size=1, max_size=3).map(lambda cs: {"$and": cs}),
    st.lists(_conditions, min_size=1, max_size=2).map(lambda cs: {"$or": cs}),
    st.tuples(_pins, _conditions).map(lambda pc: {**pc[1], **pc[0]}),
)
_sorts = st.none() | st.lists(
    st.tuples(st.sampled_from(["a", "b", "n"]), st.sampled_from([1, -1])),
    min_size=1,
    max_size=2,
    unique_by=lambda s: s[0],
)
_limits = st.none() | st.integers(min_value=0, max_value=5)
_projections = st.none() | st.lists(
    st.sampled_from(["a", "b", "n", "tag"]), min_size=1, max_size=2, unique=True
)
_queries = st.tuples(_filters, _sorts, _limits, _projections)
_indexes = st.lists(
    st.sampled_from([("a",), ("b",), ("a", "b"), ("b", "a")]), unique=True
)
_collection_ops = st.one_of(
    st.tuples(st.just("find"), _queries),
    st.tuples(
        st.just("update"), _filters,
        st.fixed_dictionaries({}, optional={"a": _values, "tag": st.just("z")}),
    ),
    st.tuples(st.just("delete"), _filters),
)


def _collection(docs, indexes):
    collection = Collection("c")
    for fields in indexes:
        collection.create_index(*fields)
    # Explicit ids keep the two collections' documents identical.
    collection.insert_many({"_id": i, **doc} for i, doc in enumerate(docs))
    return collection


class TestCollectionOracle:
    @settings(max_examples=150, deadline=None)
    @given(_documents, _indexes, st.lists(_collection_ops, min_size=1, max_size=8))
    # An update, then a read the shipped path serves from the index and
    # the oracle from a scan: both must see the same order.
    @example(
        docs=[{"n": 0, "a": 1}, {"n": 1, "a": 1}],
        indexes=[("a",)],
        ops=[("update", {"n": 0}, {"tag": "z"}),
             ("find", ({"$and": [{"a": 1}]}, None, None, None))],
    )
    def test_reads_agree(self, docs, indexes, ops):
        shipped = _collection(docs, indexes)
        oracle = _collection(docs, indexes)
        for op in ops:
            if op[0] == "find":
                filter_, sort, limit, projection = op[1]
                got = shipped.find(filter_, sort, limit, projection)
                want = oracles.collection_find(oracle, filter_, sort, limit, projection)
                assert got == want, op
            elif op[0] == "update":
                assert shipped.update_many(op[1], op[2]) == oracle.update_many(
                    op[1], op[2]
                )
            else:
                assert shipped.delete_many(op[1]) == oracle.delete_many(op[1])
            assert shipped.bytes_read == oracle.bytes_read
            assert dict(shipped.ops) == dict(oracle.ops)


class TestColumnStoreOracle:
    @settings(max_examples=100, deadline=None)
    @given(_documents, st.lists(_queries, min_size=1, max_size=5))
    def test_reads_agree(self, docs, queries):
        store = ColumnStoreCluster(n_nodes=3)
        store.insert_many("f", [{"switch_id": i % 4, **doc} for i, doc in enumerate(docs)])
        for filter_, sort, limit, projection in queries:
            got = store.find("f", filter_, sort, limit, projection)
            want = oracles.columnstore_find(store, "f", filter_, sort, limit, projection)
            assert got == want
