"""The hot-path regression bench behind ``BENCH_hotpath.json``.

Measures the three layers the hot-path overhaul touched (docs/PERF.md),
each shipped-vs-reference on identical workloads, and asserts
equivalence before reporting a speedup.  The reference side is the
oracle code of ``tests/oracles.py``, installed for the slow runs only:

* ``exact_match_lookup`` — packets/sec through a 1k-entry flow table
  whose probes hit the exact-match hash index (gate: >= 5x full mode,
  >= 1x quick/CI mode);
* ``indexed_find`` — docs/sec delivered from a 50k-document collection
  via the compound ``(feature_scope, switch_id)`` index and zero-copy
  reads (gate: >= 2x full mode);
* ``match_predicate`` — matches/sec of one compiled predicate vs the
  introspecting reference (ungated; context for the other two).

Runs standalone (``python benchmarks/bench_hotpath.py [--quick]
[--output PATH]``, exit 1 on gate failure) and under pytest (quick
workload).  The standalone run writes the ``BENCH_hotpath.json``
artifact CI uploads; a full run's output is committed at the repo root.
"""

import argparse
import pathlib
import sys
from contextlib import contextmanager, nullcontext

import pytest

from repro.dataplane.flowtable import FlowTable
from repro.distdb.collection import Collection
from repro.openflow.flow import FlowEntry
from repro.openflow.match import Match
from repro.perf import BenchResult, HotpathReport, measure_throughput

# The oracles live with the tests, one level up from this directory.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests import oracles  # noqa: E402


@contextmanager
def _reference():
    """Route matches and collection reads through the oracles."""
    with pytest.MonkeyPatch.context() as patch:
        oracles.install(patch)
        yield

# -- deterministic workloads (no RNG: the same data every run) -------------

_SCOPES = ("flow_stats", "port_stats", "conn_rate", "pair_flow")


def _flow_headers(i):
    """A concrete 11-field header dict for flow number ``i``."""
    return {
        "in_port": (i % 8) + 1,
        "eth_src": f"00:00:00:00:{(i >> 8) & 0xFF:02x}:{i & 0xFF:02x}",
        "eth_dst": f"00:00:00:01:{((i * 7) >> 8) & 0xFF:02x}:{(i * 7) & 0xFF:02x}",
        "eth_type": 0x0800,
        "vlan_id": i % 4,
        "ip_src": f"10.0.{(i >> 8) & 0xFF}.{i & 0xFF}",
        "ip_dst": f"10.1.{(i >> 8) & 0xFF}.{i & 0xFF}",
        "ip_proto": 6,
        "ip_tos": 0,
        "tcp_src": 1024 + (i % 1024),
        "tcp_dst": 80 if i % 2 == 0 else 443,
    }


def _miss_headers(i):
    """Headers matching neither an exact entry nor any wildcard."""
    return {
        "in_port": 9,
        "eth_src": f"00:00:00:02:00:{i & 0xFF:02x}",
        "eth_dst": "ff:ff:ff:ff:ff:ff",
        "eth_type": 0x0806,
    }


def _build_table(table_cls, n_exact):
    table = table_cls()
    for i in range(n_exact):
        entry = FlowEntry(
            match=Match.exact_from_headers(_flow_headers(i)), priority=100
        )
        table.insert(entry, now=0.0)
    # Wildcards around the exact tier: one that outranks the exact entries
    # (shadows every odd flow), and several below them.
    wildcards = [
        (Match(eth_type=0x0800, ip_proto=6, tcp_dst=443), 200),
        (Match(eth_type=0x0800, ip_proto=17), 50),
        (Match(eth_type=0x0800, ip_proto=6), 40),
        (Match(in_port=1), 5),
        (Match(in_port=2), 5),
        (Match(in_port=3), 5),
    ]
    for match, priority in wildcards:
        table.insert(FlowEntry(match=match, priority=priority), now=0.0)
    return table


def _winner_signature(entry):
    if entry is None:
        return None
    return (entry.priority, entry.match.key_tuple())


def _bench_exact_match(quick):
    n_exact = 300 if quick else 1000
    n_probes = 150 if quick else 500
    probes = [_flow_headers(i * 2 % n_exact) for i in range(n_probes)]
    probes += [_miss_headers(i) for i in range(n_probes // 5)]
    fast_table = _build_table(FlowTable, n_exact)
    slow_table = _build_table(oracles.ReferenceFlowTable, n_exact)

    fast_winners = [_winner_signature(fast_table.lookup(h)) for h in probes]
    with _reference():
        slow_winners = [_winner_signature(slow_table.lookup(h)) for h in probes]
    equivalent = fast_winners == slow_winners

    fast_repeat = 10 if quick else 40

    def run_fast():
        lookup = fast_table.lookup
        for _ in range(fast_repeat):
            for headers in probes:
                lookup(headers)

    def run_slow():
        with _reference():
            lookup = slow_table.lookup
            for headers in probes:
                lookup(headers)

    rounds = 2 if quick else 3
    return BenchResult(
        name="exact_match_lookup",
        fast_ops_per_sec=measure_throughput(
            run_fast, len(probes) * fast_repeat, rounds=rounds
        ),
        slow_ops_per_sec=measure_throughput(run_slow, len(probes), rounds=rounds),
        n_ops=len(probes),
        equivalent=equivalent,
        unit="lookups/s",
        detail={"table_entries": len(fast_table), "probes": len(probes)},
    )


def _feature_doc(i):
    return {
        "feature_scope": _SCOPES[i % 4],
        "switch_id": i % 64,
        "ip_src": f"10.0.{(i >> 8) & 0xFF}.{i & 0xFF}",
        "packet_count": (i * 37) % 10007,
        "byte_count": (i * 911) % 1000003,
        "window": i % 16,
    }


def _feature_queries(n_queries):
    return [
        {
            "filter": {
                "$and": [
                    {"feature_scope": _SCOPES[q % 4]},
                    {"switch_id": (q * 11) % 64},
                ]
            },
            "sort": [("packet_count", -1)],
            "limit": 10,
        }
        for q in range(n_queries)
    ]


def _run_queries(collection, queries):
    batches = []
    for query in queries:
        batches.append(
            collection.find(
                query["filter"], sort=query["sort"], limit=query["limit"]
            )
        )
    return batches


def _bench_indexed_find(quick):
    n_docs = 4000 if quick else 50_000
    n_queries = 6 if quick else 8
    collection = Collection("features")
    collection.create_index("switch_id")
    collection.create_index("feature_scope", "switch_id")
    collection.insert_many(_feature_doc(i) for i in range(n_docs))
    queries = _feature_queries(n_queries)

    read_before = collection.bytes_read
    fast_batches = _run_queries(collection, queries)
    fast_bytes = collection.bytes_read - read_before
    with _reference():
        read_before = collection.bytes_read
        slow_batches = _run_queries(collection, queries)
        slow_bytes = collection.bytes_read - read_before
    equivalent = fast_batches == slow_batches and fast_bytes == slow_bytes
    docs_returned = sum(len(batch) for batch in fast_batches)

    fast_repeat = 10 if quick else 50

    def run_fast():
        for _ in range(fast_repeat):
            _run_queries(collection, queries)

    def run_slow():
        with _reference():
            _run_queries(collection, queries)

    rounds = 2 if quick else 3
    return BenchResult(
        name="indexed_find",
        fast_ops_per_sec=measure_throughput(
            run_fast, docs_returned * fast_repeat, rounds=rounds
        ),
        slow_ops_per_sec=measure_throughput(run_slow, docs_returned, rounds=rounds),
        n_ops=docs_returned,
        equivalent=equivalent,
        unit="docs/s",
        detail={
            "collection_docs": n_docs,
            "queries": n_queries,
            "bytes_read_per_batch": fast_bytes,
        },
    )


def _bench_match_predicate(quick):
    match = Match(
        eth_type=0x0800, ip_src="10.0.0.1", ip_dst="10.1.0.1", ip_proto=6, tcp_dst=80
    )
    hit = _flow_headers(0) | {"ip_src": "10.0.0.1", "ip_dst": "10.1.0.1"}
    miss = _flow_headers(1)
    n = 5_000 if quick else 50_000

    fast_verdicts = (match.matches(hit), match.matches(miss))
    with _reference():
        slow_verdicts = (match.matches(hit), match.matches(miss))

    def run(enabled):
        def body():
            with nullcontext() if enabled else _reference():
                matches = match.matches
                for _ in range(n // 2):
                    matches(hit)
                    matches(miss)

        return body

    rounds = 2 if quick else 3
    return BenchResult(
        name="match_predicate",
        fast_ops_per_sec=measure_throughput(run(True), n, rounds=rounds),
        slow_ops_per_sec=measure_throughput(run(False), n, rounds=rounds),
        n_ops=n,
        equivalent=fast_verdicts == slow_verdicts == (True, False),
        unit="matches/s",
    )


# -- assembly ----------------------------------------------------------------


def run_report(quick=False):
    report = HotpathReport(quick=quick)
    report.add(_bench_exact_match(quick), min_speedup=1.0 if quick else 5.0)
    report.add(_bench_indexed_find(quick), min_speedup=None if quick else 2.0)
    report.add(_bench_match_predicate(quick))
    return report


# -- pytest entry points -----------------------------------------------------


def test_hotpath_quick(recorder):
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
    recorder.print_table("hot-path overhaul (quick)")
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
        default="BENCH_hotpath.json",
        help="where to write the JSON artifact (default: ./BENCH_hotpath.json)",
    )
    args = parser.parse_args(argv)
    report = run_report(quick=args.quick)
    report.write(args.output)
    report.print_summary()
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
