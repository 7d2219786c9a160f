"""The sketch-path scale bench behind ``BENCH_sketch.json``.

Exercises the ``ATHENA_SKETCH`` feature path (docs/SKETCH.md) on the
million-flow workload of :mod:`repro.workloads.sketchscale` and gates
the three claims the sketch scope makes:

* ``sketch_ingest_throughput`` — flow observations/sec through
  :class:`~repro.sketch.features.SketchFeatureState` (two Count-Min
  adds, two HyperLogLog adds, one Bloom probe per event), gated against
  an absolute floor — the pure-python sketches must keep up with the
  simulator's event rates;
* ``memory_sublinear`` — tracemalloc peak of the sketch path over the
  full ~1M-distinct-flow stream vs the exact path's measured
  bytes-per-flow extrapolated to the same flow count (the exact state
  is measured on a single-window prefix, where every flow is live at
  once, as a production flow table would hold them).  Gate: the sketch
  peak stays at or under 25% of the exact extrapolation (>= 4x
  flows-per-MB);
* ``ddos_recall`` / ``portscan_recall`` — threshold detection fed from
  sketch features alone vs the same detection on exact features: recall
  must come within ``RECALL_TOLERANCE`` (0.25) of the exact
  path (the equivalence verdict is the gate);
* ``determinism`` — two same-seed runs must produce byte-identical
  sketch-state serialisations and identical alert-stream sha256
  digests (the equivalence verdict is the gate).

Runs standalone (``python benchmarks/bench_sketch.py [--quick]
[--output PATH]``, exit 1 on gate failure) and under pytest (quick
workload).  The standalone run writes the ``BENCH_sketch.json`` artifact
CI uploads; a full run's output is committed at the repo root.
"""

import argparse
import sys
import tracemalloc

from repro.perf import BenchResult, HotpathReport, measure_throughput
from repro.sketch.features import ExactWindowState, SketchFeatureState
from repro.sketch.scenarios import (
    RECALL_TOLERANCE,
    run_sketch_scenario,
)
from repro.workloads.sketchscale import SketchScaleGenerator, SketchScaleSpec

# Full mode replays the headline workload: ~1M distinct flows over a
# 100k-host pool; quick/CI mode scales down two orders of magnitude.
FULL_SPEC = dict(n_flows=1_000_000, n_hosts=100_000, n_switches=8, n_windows=8)
QUICK_SPEC = dict(n_flows=50_000, n_hosts=5_000, n_switches=8, n_windows=6)

#: Absolute ingest floors (observations/sec) for the throughput gate;
#: the committed full run measures ~50k ev/s on the reference box.
FULL_FLOOR = 15_000.0
QUICK_FLOOR = 8_000.0

#: Events used by the throughput measurement and the exact-path
#: bytes-per-flow prefix.
FULL_SAMPLE = 200_000
QUICK_SAMPLE = 20_000


def _spec(quick, scenario="ddos", seed=7):
    shape = QUICK_SPEC if quick else FULL_SPEC
    return SketchScaleSpec(scenario=scenario, seed=seed, **shape)


def _sample_chunks(spec, n_events):
    """The first ``n_events`` observations of the stream, materialised."""
    generator = SketchScaleGenerator(spec)
    chunks, total = [], 0
    for chunk in generator.chunks():
        chunks.append(chunk)
        total += len(chunk)
        if total >= n_events:
            break
    return generator, chunks, total


# -- ingest throughput -------------------------------------------------------


def _bench_throughput(quick):
    spec = _spec(quick)
    n_events = QUICK_SAMPLE if quick else FULL_SAMPLE
    generator, chunks, total = _sample_chunks(spec, n_events)

    def run_ingest():
        state = SketchFeatureState(seed=spec.seed)
        for chunk in chunks:
            generator.feed_chunk(state, chunk)

    floor = QUICK_FLOOR if quick else FULL_FLOOR
    rounds = 2 if quick else 3
    measured = measure_throughput(run_ingest, total, rounds=rounds)
    return BenchResult(
        name="sketch_ingest_throughput",
        fast_ops_per_sec=measured,
        slow_ops_per_sec=floor,
        n_ops=total,
        equivalent=True,
        unit="events/s",
        detail={
            "floor_events_per_sec": floor,
            "structures_per_event": "2xCMS add, 2xHLL add, 1xBloom probe",
        },
    )


# -- memory: sublinear vs exact extrapolation --------------------------------


def _bench_memory(quick):
    spec = _spec(quick)
    mb = 1024 * 1024

    # Sketch path: peak over the FULL stream (all windows, attacks included).
    generator = SketchScaleGenerator(spec)
    tracemalloc.start()
    state = SketchFeatureState(seed=spec.seed)
    n_events = 0
    for chunk in generator.chunks():
        generator.feed_chunk(state, chunk)
        n_events += len(chunk)
    sketch_resident = state.nbytes()
    _, sketch_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del state

    # Exact path: bytes/flow measured on a single-window prefix (every
    # flow live at once), extrapolated to the full distinct-flow count.
    prefix_events = QUICK_SAMPLE if quick else FULL_SAMPLE
    generator, chunks, prefix = _sample_chunks(spec, prefix_events)
    tracemalloc.start()
    exact = ExactWindowState(seed=spec.seed)
    for chunk in chunks:
        generator.feed_chunk(exact, chunk)
    _, exact_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    distinct_flows = sum(len(s.flows) for s in exact._switches.values())
    exact_bytes_per_flow = exact_peak / max(1, distinct_flows)
    exact_extrapolated = exact_bytes_per_flow * spec.n_flows
    del exact

    return BenchResult(
        name="memory_sublinear",
        fast_ops_per_sec=spec.n_flows / (sketch_peak / mb),
        slow_ops_per_sec=spec.n_flows / (exact_extrapolated / mb),
        n_ops=n_events,
        equivalent=True,
        unit="flows/MB",
        detail={
            "sketch_peak_mb": round(sketch_peak / mb, 2),
            "sketch_resident_mb": round(sketch_resident / mb, 2),
            "exact_prefix_events": prefix,
            "exact_prefix_flows": distinct_flows,
            "exact_bytes_per_flow": round(exact_bytes_per_flow, 1),
            "exact_extrapolated_mb": round(exact_extrapolated / mb, 2),
            "sketch_over_exact": round(sketch_peak / exact_extrapolated, 4),
        },
    )


# -- detection recall: sketch vs exact ---------------------------------------


def _bench_recall(scenario, quick, sketch_outcome=None):
    spec = _spec(quick, scenario=scenario)
    sketch = sketch_outcome or run_sketch_scenario(spec, use_sketch=True)
    exact = run_sketch_scenario(spec, use_sketch=False)
    drift = abs(sketch.recall - exact.recall)
    return (
        BenchResult(
            name=f"{scenario}_recall",
            fast_ops_per_sec=sketch.recall,
            slow_ops_per_sec=exact.recall,
            n_ops=sketch.n_documents,
            equivalent=drift <= RECALL_TOLERANCE,
            unit="recall",
            detail={
                "sketch_recall": round(sketch.recall, 4),
                "exact_recall": round(exact.recall, 4),
                "drift": round(drift, 4),
                "tolerance": RECALL_TOLERANCE,
                "sketch_false_alarm_rate": round(sketch.false_alarm_rate, 4),
                "threshold": round(sketch.threshold, 2),
                "attack_cells": sketch.n_attack_cells,
            },
        ),
        sketch,
    )


# -- determinism: same seed, same bytes --------------------------------------


def _bench_determinism(quick, first):
    spec = _spec(quick, scenario=first.scenario)
    second = run_sketch_scenario(spec, use_sketch=True)
    identical = (
        first.state_digest == second.state_digest
        and first.alert_digest == second.alert_digest
    )
    return BenchResult(
        name="determinism",
        fast_ops_per_sec=1.0,
        slow_ops_per_sec=1.0,
        n_ops=2,
        equivalent=identical,
        unit="runs",
        detail={
            "state_digest": first.state_digest,
            "alert_digest": first.alert_digest,
            "rerun_state_digest": second.state_digest,
            "rerun_alert_digest": second.alert_digest,
        },
    )


# -- assembly ----------------------------------------------------------------


def run_report(quick=False):
    report = HotpathReport(quick=quick, bench="sketch")
    report.add(_bench_throughput(quick), min_speedup=1.0)
    # Sublinearity needs scale to show: at the quick flow count the fixed
    # sketch cost dominates, so the 4x (<= 25% of exact) gate applies to
    # the full run only — the committed artifact measures ~60x.
    report.add(_bench_memory(quick), min_speedup=None if quick else 4.0)
    ddos_result, ddos_outcome = _bench_recall("ddos", quick)
    report.add(ddos_result)
    portscan_result, _ = _bench_recall("portscan", quick)
    report.add(portscan_result)
    report.add(_bench_determinism(quick, ddos_outcome))
    spec = _spec(quick)
    for result in report.results:
        result.detail.setdefault("n_flows", spec.n_flows)
        result.detail.setdefault("n_hosts", spec.n_hosts)
    return report


# -- pytest entry points -----------------------------------------------------


def test_sketch_quick(recorder):
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
    recorder.print_table("sketch scale sweep (quick)")
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
        default="BENCH_sketch.json",
        help="where to write the JSON artifact (default: ./BENCH_sketch.json)",
    )
    args = parser.parse_args(argv)
    report = run_report(quick=args.quick)
    report.write(args.output)
    report.print_summary()
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
