"""The streaming detection pipeline bench behind ``BENCH_streaming.json``.

The streaming pipeline (docs/STREAMING.md) promises bounded per-event
work: every PacketIn / FlowRemoved / flow-stats event folds into
incremental feature state and is scored by the registered online
learners without any model retrain on the hot path.  This bench
quantifies and gates that promise:

* ``sustained_events_per_sec`` — synthetic PacketIn events driven
  straight through a pipeline + sliding-window detector (gate:
  >= 10,000 events/s);
* ``event_latency_p99_ms`` — per-event wall-clock fold+score latency
  percentiles, p50/p95/p99 reported (gate: p99 < 2 ms — bounded, no
  per-event retrain);
* ``parity`` — the portscan (and, in full mode, DDoS) scenario run
  through both the batch and streaming paths; streaming recall must
  land within ``RECALL_TOLERANCE`` of batch recall;
* ``determinism`` — two identical same-seed runs must produce
  byte-identical alert streams.

Runs standalone (``python benchmarks/bench_streaming.py [--quick]
[--output PATH]``, exit 1 on gate failure) and under pytest (quick
workload).  The standalone run writes the ``BENCH_streaming.json``
artifact CI uploads; a full run's output is committed at the repo root.
"""

import argparse
import json
import sys

from repro.controller.events import EventBus, PacketInEvent
from repro.ml.online import SlidingWindowDetector
from repro.openflow.messages import PacketIn
from repro.scenarios import RECALL_TOLERANCE, run_scenario
from repro.streaming import StreamingDetectorManager, StreamingPipeline
from repro.telemetry.clocks import Stopwatch

#: Minimum sustained fold+score rate over synthetic PacketIn events.
MIN_EVENTS_PER_SEC = 10_000.0
#: Hot-path latency ceiling: p99 of one event's fold+score wall time.
MAX_P99_MS = 2.0

QUICK_EVENTS = 20_000
FULL_EVENTS = 200_000
#: Distinct (src, dst, port) flows the synthetic stream cycles through —
#: large enough that the state tables keep churning new entries.
SYNTHETIC_FLOWS = 2_000


def _build_pipeline():
    """A standalone pipeline + detector fed by a private event bus."""
    bus = EventBus()
    pipeline = StreamingPipeline()
    detectors = StreamingDetectorManager()
    detectors.register_detector(
        "bench_fanout",
        SlidingWindowDetector(column=0, threshold=64.0, window=16, min_hits=4),
        features=["SRC_FLOW_FANOUT"],
        cooldown=1.0,
    )
    pipeline.add_sink(detectors.on_event)
    pipeline.attach_instance(0, bus)
    return bus, pipeline, detectors


def _synthetic_event(i):
    """One PacketIn event from a rotating population of synthetic flows."""
    flow = i % SYNTHETIC_FLOWS
    src = flow % 64
    headers = {
        "ip_src": f"10.1.{src}.{flow % 250}",
        "ip_dst": f"10.2.0.{flow % 200}",
        "ip_proto": 6,
        "tcp_src": 40_000 + flow % 1_000,
        "tcp_dst": 1_000 + flow % 5_000,
    }
    return PacketInEvent(
        instance_id=0,
        dpid=1 + flow % 3,
        time=i * 1e-4,
        message=PacketIn(dpid=1 + flow % 3, headers=headers, total_len=120),
    )


def _measure_throughput(n_events):
    """Sustained events/s through the full bus→fold→score path."""
    bus, pipeline, detectors = _build_pipeline()
    events = [_synthetic_event(i) for i in range(n_events)]
    watch = Stopwatch()
    for event in events:
        bus.publish(event)
    elapsed = watch.elapsed()
    assert pipeline.events_processed == n_events
    return n_events / elapsed, detectors


def _measure_latency(n_events):
    """Per-event fold+score wall latency percentiles (milliseconds)."""
    bus, pipeline, _ = _build_pipeline()
    events = [_synthetic_event(i) for i in range(n_events)]
    samples = []
    for event in events:
        watch = Stopwatch()
        bus.publish(event)
        samples.append(watch.elapsed())
    samples.sort()

    def pct(p):
        index = min(len(samples) - 1, int(p * len(samples)))
        return samples[index] * 1e3

    return {"p50_ms": pct(0.50), "p95_ms": pct(0.95), "p99_ms": pct(0.99)}


def _parity_row(scenario):
    result = run_scenario(scenario, streaming=True)
    drop = result.recall - result.streaming_recall
    return {
        "metric": f"recall_parity_{scenario}",
        "value": round(result.streaming_recall, 4),
        "gate": f">= batch ({result.recall:.3f}) - {RECALL_TOLERANCE}",
        "passed": (
            result.streaming_detected
            and drop <= RECALL_TOLERANCE
        ),
    }, result


def _determinism_row():
    first = run_scenario("portscan", streaming=True)
    second = run_scenario("portscan", streaming=True)
    identical = first.alert_stream_json == second.alert_stream_json
    return {
        "metric": "alert_stream_determinism",
        "value": first.alert_stream_digest[:16],
        "gate": "two same-seed runs byte-identical",
        "passed": identical and len(first.alert_stream_json) > 2,
    }


# -- assembly ----------------------------------------------------------------


def run_report(quick=False):
    """Run every phase; returns the artifact dict (``passed`` included)."""
    n_events = QUICK_EVENTS if quick else FULL_EVENTS
    events_per_sec, detectors = _measure_throughput(n_events)
    latency = _measure_latency(min(n_events, 50_000))

    rows = [
        {"metric": "sustained_events_per_sec",
         "value": round(events_per_sec, 1),
         "gate": f">= {MIN_EVENTS_PER_SEC:,.0f}",
         "passed": events_per_sec >= MIN_EVENTS_PER_SEC},
        {"metric": "event_latency_p99_ms",
         "value": round(latency["p99_ms"], 4),
         "gate": f"< {MAX_P99_MS}",
         "passed": latency["p99_ms"] < MAX_P99_MS},
    ]
    scenarios = ("portscan",) if quick else ("portscan", "ddos")
    parity_meta = {}
    for scenario in scenarios:
        row, result = _parity_row(scenario)
        rows.append(row)
        parity_meta[scenario] = {
            "batch_recall": round(result.recall, 4),
            "streaming_recall": round(result.streaming_recall, 4),
            "batch_detected": result.detected,
            "streaming_detected": result.streaming_detected,
            "events_processed": result.events_processed,
            "alerts_emitted": result.alerts_emitted,
        }
    rows.append(_determinism_row())

    meta = {
        "quick": quick,
        "synthetic_events": n_events,
        "synthetic_flows": SYNTHETIC_FLOWS,
        "latency_ms": {k: round(v, 4) for k, v in latency.items()},
        "bench_detector_alerts": len(detectors.alerts),
        "recall_tolerance": RECALL_TOLERANCE,
        "parity": parity_meta,
    }
    return {
        "bench": "streaming",
        "meta": meta,
        "rows": rows,
        "passed": all(row["passed"] for row in rows),
    }


# -- pytest entry points -----------------------------------------------------


def test_streaming_bench_quick(recorder):
    report = run_report(quick=True)
    recorder.set_meta(**{
        key: value for key, value in report["meta"].items()
        if key not in ("parity", "latency_ms")
    })
    for row in report["rows"]:
        recorder.add_row(**row)
    recorder.print_table("streaming pipeline (quick)")
    failures = [row["metric"] for row in report["rows"] if not row["passed"]]
    assert report["passed"], failures


# -- standalone entry point --------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small synthetic stream, portscan-only parity (CI smoke mode)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_streaming.json",
        help="where to write the JSON artifact "
             "(default: ./BENCH_streaming.json)",
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
              f"{row['value']!s:>16} (gate {row['gate']})")
    print("PASSED" if report["passed"] else "FAILED")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
