"""The northbound serving-tier load bench behind ``BENCH_nb_api.json``.

The serving tier promises that heavy client traffic rides on the
version-keyed response cache instead of the detection loop (docs/API.md):
once a response is rendered at the current state version, every repeat is
one dict lookup, and conditional polls collapse to 304s.  This bench
quantifies that promise cbench-style and gates it two ways:

* ``cached_throughput`` — queries/sec over a warmed route mix, single
  client and 4 concurrent clients (gate: >= 1,000 q/s — measured rates
  are typically two orders above the gate);
* ``modeled_perturbation`` — the detection-loop wall-clock share a
  sustained 1,000 q/s offered load would steal: ``target_qps x
  seconds_per_cached_query`` (gate: < 5%), the same budget discipline as
  ``bench_telemetry_overhead``;
* ``measured_perturbation`` (full mode only) — the detection scenario is
  re-run while 4 paced client threads drive ~1,000 q/s against it;
  best-of-3 wall-clock ratio vs the unloaded run (gate: < 5%).

Runs standalone (``python benchmarks/bench_nb_api.py [--quick]
[--output PATH]``, exit 1 on gate failure) and under pytest (quick
workload).  The standalone run writes the ``BENCH_nb_api.json`` artifact
CI uploads; a full run's output is committed at the repo root.
"""

import argparse
import json
import sys
import threading

from repro import telemetry
from repro.northbound import LocalClient, NorthboundAPI
from repro.scenarios import build_demo_stack
from repro.telemetry.clocks import Stopwatch

#: Offered load the perturbation model assumes (and the paced threads drive).
TARGET_QPS = 1000.0
#: Detection wall-clock share the serving tier may cost at TARGET_QPS.
MAX_PERTURBATION = 0.05
#: Minimum cached-query service rate, single-client.
MIN_QPS = 1000.0

#: The route mix every throughput phase cycles through — the endpoints a
#: polling dashboard hits, cheap and expensive alike.
ROUTES = (
    "/api/status",
    "/api/features?limit=20",
    "/api/alerts",
    "/api/models",
    "/api/health",
    "/api/switches",
    "/api/switches/1/flows?limit=5",
)

#: Scenario shape for the measured-perturbation phase: long enough that
#: the unloaded run takes ~1s of wall clock, so a ~1,000 q/s offered load
#: amounts to thousands of queries per attempt.
FULL_HORIZON = 30.0
FULL_RATE_PPS = 600.0
QUICK_HORIZON = 8.0
QUICK_RATE_PPS = 150.0


def _build_serving_stack(horizon, rate_pps):
    """A finished detection run plus its API, with run wall-clock."""
    stack = build_demo_stack(horizon=horizon, attack_rate_pps=rate_pps)
    watch = Stopwatch()
    stack.run(until=horizon)
    run_seconds = watch.elapsed()
    stack.enforce_block()
    return stack, NorthboundAPI(stack.athena), run_seconds


def _warm(client):
    for route in ROUTES:
        client.get(route)


def _measure_cached_qps(client, n_queries):
    """(queries/sec, seconds/query) over the warmed route mix."""
    _warm(client)
    watch = Stopwatch()
    for i in range(n_queries):
        client.get(ROUTES[i % len(ROUTES)])
    elapsed = watch.elapsed()
    return n_queries / elapsed, elapsed / n_queries


def _measure_304_qps(client, n_queries):
    """Conditional-poll rate: every request carries a current ETag."""
    etag = client.get("/api/status").etag
    headers = {"If-None-Match": etag}
    watch = Stopwatch()
    for _ in range(n_queries):
        client.get("/api/status", headers=headers)
    return n_queries / watch.elapsed()


def _measure_threaded_qps(app, n_threads, per_thread):
    """Aggregate q/s with ``n_threads`` unpaced concurrent clients."""
    barrier = threading.Barrier(n_threads + 1)

    def worker():
        client = LocalClient(app)
        _warm(client)
        barrier.wait()
        for i in range(per_thread):
            client.get(ROUTES[i % len(ROUTES)])

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    barrier.wait()
    watch = Stopwatch()
    for thread in threads:
        thread.join()
    return n_threads * per_thread / watch.elapsed()


class _PacedClients:
    """Background clients offering ~TARGET_QPS against an app, until stopped.

    Each client polls in bursts — a sweep of queries every ``poll_period``
    seconds, like a dashboard refreshing all its panels at once — rather
    than one query per wakeup.  The offered rate is the same; the burst
    shape keeps thread wakeups (each of which preempts the CPU-bound
    detection loop for a GIL handoff) at tens per second instead of
    thousands.
    """

    def __init__(self, app, n_threads=4, target_qps=TARGET_QPS,
                 poll_period=0.05):
        self._stop = threading.Event()
        self._period = poll_period
        self._burst = max(1, round(target_qps * poll_period / n_threads))
        self._app = app
        self.queries_served = 0
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._run, daemon=True)
            for _ in range(n_threads)
        ]

    def _run(self):
        client = LocalClient(self._app)
        pacer = threading.Event()  # never set: wait() is the pace timer
        served = 0
        while not self._stop.is_set():
            for i in range(self._burst):
                client.get(ROUTES[(served + i) % len(ROUTES)])
            served += self._burst
            pacer.wait(self._period)
        with self._lock:
            self.queries_served += served

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        for thread in self._threads:
            thread.join()
        return False


def _measure_perturbation(attempts=3):
    """Best-of-N measured slowdown of the detection run under offered load.

    Each attempt runs the identical scenario twice — unloaded, then with
    paced clients querying throughout — and compares wall clocks.  The
    minimum ratio across attempts is the estimate (scheduler noise only
    ever inflates a ratio, never deflates it).
    """
    best = None
    total_queries = 0
    for _ in range(attempts):
        _, _, unloaded = _build_serving_stack(FULL_HORIZON, FULL_RATE_PPS)
        stack = build_demo_stack(
            horizon=FULL_HORIZON, attack_rate_pps=FULL_RATE_PPS
        )
        app = NorthboundAPI(stack.athena)
        _warm(LocalClient(app))
        with _PacedClients(app) as clients:
            watch = Stopwatch()
            stack.run(until=FULL_HORIZON)
            loaded = watch.elapsed()
        total_queries += clients.queries_served
        ratio = loaded / unloaded - 1.0
        best = ratio if best is None else min(best, ratio)
    return best, total_queries


def _cache_counters():
    snapshot = telemetry.get_telemetry().snapshot()
    wanted = {
        "athena_nb_api_cache_hits_total",
        "athena_nb_api_not_modified_total",
    }
    totals = {}
    for row in snapshot["metrics"]:
        if row["name"] in wanted:
            totals[row["name"]] = sum(
                sample["value"] for sample in row["samples"]
            )
    return totals


# -- assembly ----------------------------------------------------------------


def run_report(quick=False):
    """Run every phase; returns the artifact dict (``passed`` included)."""
    telemetry.configure(enabled=True)
    n_queries = 2_000 if quick else 20_000
    horizon = QUICK_HORIZON if quick else FULL_HORIZON
    rate = QUICK_RATE_PPS if quick else FULL_RATE_PPS
    _, app, _ = _build_serving_stack(horizon, rate)
    client = LocalClient(app)

    qps, per_query = _measure_cached_qps(client, n_queries)
    qps_304 = _measure_304_qps(client, n_queries)
    threaded_qps = _measure_threaded_qps(
        app, n_threads=4, per_thread=n_queries // 4
    )
    modeled = TARGET_QPS * per_query

    rows = [
        {"metric": "cached_qps_single_client", "value": round(qps, 1),
         "gate": f">= {MIN_QPS:,.0f}", "passed": qps >= MIN_QPS},
        {"metric": "cached_qps_4_clients", "value": round(threaded_qps, 1),
         "gate": f">= {MIN_QPS:,.0f}", "passed": threaded_qps >= MIN_QPS},
        {"metric": "conditional_304_qps", "value": round(qps_304, 1),
         "gate": f">= {MIN_QPS:,.0f}", "passed": qps_304 >= MIN_QPS},
        {"metric": "modeled_perturbation_at_target_qps",
         "value": round(modeled, 5),
         "gate": f"< {MAX_PERTURBATION}", "passed": modeled < MAX_PERTURBATION},
    ]
    meta = {
        "quick": quick,
        "target_qps": TARGET_QPS,
        "route_mix": list(ROUTES),
        "queries_per_phase": n_queries,
        "cached_query_us": round(per_query * 1e6, 2),
        "cache_counters": _cache_counters(),
    }
    if not quick:
        measured, concurrent_queries = _measure_perturbation()
        meta["concurrent_queries_driven"] = concurrent_queries
        rows.append(
            {"metric": "measured_perturbation_under_load",
             "value": round(measured, 5),
             "gate": f"< {MAX_PERTURBATION}",
             "passed": measured < MAX_PERTURBATION}
        )
    return {
        "bench": "nb_api",
        "meta": meta,
        "rows": rows,
        "passed": all(row["passed"] for row in rows),
    }


# -- pytest entry points -----------------------------------------------------


def test_nb_api_load_quick(recorder):
    report = run_report(quick=True)
    recorder.set_meta(**{
        key: value for key, value in report["meta"].items()
        if key != "route_mix"
    })
    for row in report["rows"]:
        recorder.add_row(**row)
    recorder.print_table("northbound API load (quick)")
    telemetry.reset_telemetry()
    failures = [row["metric"] for row in report["rows"] if not row["passed"]]
    assert report["passed"], failures


# -- standalone entry point --------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads, no measured-perturbation phase (CI smoke mode)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_nb_api.json",
        help="where to write the JSON artifact (default: ./BENCH_nb_api.json)",
    )
    args = parser.parse_args(argv)
    report = run_report(quick=args.quick)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    width = max(len(row["metric"]) for row in report["rows"])
    for row in report["rows"]:
        verdict = "ok " if row["passed"] else "FAIL"
        print(f"  {verdict} {row['metric']:{width}s} "
              f"{row['value']:>12,} (gate {row['gate']})")
    print("PASSED" if report["passed"] else "FAILED")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
