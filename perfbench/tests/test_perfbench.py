"""Tests for the benchmark: span arithmetic, probes, workloads, contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, run
from perfbench.trace import PER_LAYER, UNATTRIBUTED, Probe, Tracer, instrument
from perfbench.workloads import WORKLOADS, batch_ddos, live_mixed, stream_ingest

ROOT = Path(__file__).resolve().parents[2]


def _ticking_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


class TestSelfTime:
    def test_nested_tree(self):
        # root [0, 100] > a [10, 40] > a1 [15, 25]; root > b [50, 90]
        tracer = Tracer(clock=_ticking_clock([0, 10, 15, 25, 40, 50, 90, 100]))
        tracer.push("root", UNATTRIBUTED)
        tracer.push("a", "A")
        tracer.push("a1", "A1")
        assert tracer.pop() == 10
        assert tracer.pop() == 30
        tracer.push("b", "B")
        assert tracer.pop() == 40
        assert tracer.pop() == 100
        assert dict(tracer.self_ns) == {UNATTRIBUTED: 30, "A": 20, "A1": 10, "B": 40}
        assert sum(tracer.self_ns.values()) == tracer.root_ns == 100
        by_name = {span[2]: span for span in tracer.spans}
        assert by_name["root"][1] == -1
        assert by_name["a1"][1] == by_name["a"][0]
        assert by_name["b"][1] == by_name["root"][0]

    def test_same_bucket_children_add_up(self):
        tracer = Tracer(clock=_ticking_clock([0, 1, 4, 5, 9, 10]))
        tracer.push("root", UNATTRIBUTED)
        for _ in range(2):
            tracer.push("x", "X")
            tracer.pop()
        tracer.pop()
        assert tracer.self_ns["X"] == 7
        assert tracer.self_ns[UNATTRIBUTED] == 3

    def test_span_cap_keeps_aggregates(self):
        tracer = Tracer(max_spans=2, clock=_ticking_clock(range(100)))
        tracer.push("root", UNATTRIBUTED)
        for _ in range(3):
            tracer.push("x", "X")
            tracer.pop()
        tracer.pop()
        assert len(tracer.spans) == 2 and tracer.dropped == 2
        assert tracer.self_ns["X"] == 3


class _Layer:
    def work(self, n):
        return list(range(n))

    def outer(self, n):
        return self.work(n) + self.work(n)

    def recurse(self, depth):
        return 0 if depth == 0 else 1 + self.recurse(depth - 1)


class TestProbes:
    def _probes(self):
        count = lambda t, a, k, r, b: t.add("rows", len(r))  # noqa: E731
        return [
            Probe(_Layer, "work", "work_self", after=count),
            Probe(_Layer, "outer", "outer_self"),
            Probe(_Layer, "recurse", "recurse_self",
                  after=lambda t, a, k, r, b: t.add("recursions")),
        ]

    def test_counts_inside_root_only(self):
        tracer = Tracer()
        layer = _Layer()
        with instrument(tracer, self._probes()):
            layer.outer(3)  # outside any root span: not recorded
            assert not tracer.spans
            tracer.push("op", UNATTRIBUTED)
            layer.outer(3)
            tracer.pop()
        assert tracer.counts["rows"] == 6
        assert [span[2] for span in tracer.spans] == [
            "_Layer.work", "_Layer.work", "_Layer.outer", "op",
        ]

    def test_reentrant_call_is_one_span(self):
        tracer = Tracer()
        with instrument(tracer, self._probes()):
            tracer.push("op", UNATTRIBUTED)
            assert _Layer().recurse(4) == 4
            tracer.pop()
        assert tracer.counts["recursions"] == 1

    def test_restores_originals(self):
        original = _Layer.__dict__["work"]
        with instrument(Tracer(), self._probes()):
            assert _Layer.__dict__["work"] is not original
        assert _Layer.__dict__["work"] is original

    def test_layer_probes_install_and_restore(self):
        from perfbench.trace import layer_probes
        from repro.distdb.cluster import DatabaseCluster

        before = DatabaseCluster.__dict__["find"]
        with instrument(Tracer(), layer_probes()):
            assert DatabaseCluster.__dict__["find"] is not before
        assert DatabaseCluster.__dict__["find"] is before


def test_percentile_interpolates():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert harness.percentile([1.0, 2.0], 50) == 1.5
    assert harness.percentile([7.0], 99) == 7.0


def test_typical_round_takes_each_position_median():
    host = harness.HostSpeed()
    recorder = harness.Recorder(host)
    recorder.samples = [(0.0, t) for t in (1.0, 5.0, 2.0, 9.0, 3.0, 7.0)]
    recorder.round_ends = [(2, 10.0), (4, 20.0), (6, 30.0)]
    medians, units = recorder.typical_round([t for _, t in recorder.samples])
    assert medians == [2.0, 7.0]
    assert units == 10.0


def test_host_speed_scales_by_nearby_kernel_runs():
    host = harness.HostSpeed()
    ref = harness.KERNEL_REF_S
    host.whens = [0.0, 0.1, 0.2, 5.0, 5.1, 9.0]
    host.seconds = [ref, ref, ref, 2 * ref, 2 * ref, 4 * ref]
    assert host.scale(0.25, 0.3) == 1.0
    assert host.scale(5.05, 5.1) == 0.5
    # Nothing within reach: the nearest runs on either side.
    assert host.scale(7.0, 7.1) == pytest.approx(1 / 3)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so one run takes seconds."""
    monkeypatch.setattr(batch_ddos, "SCALE", 0.0001)
    monkeypatch.setattr(live_mixed, "HORIZON", 9.0)
    monkeypatch.setattr(live_mixed, "BENIGN_FLOWS", 20)
    monkeypatch.setattr(live_mixed, "SCAN_PORTS", 60)
    monkeypatch.setattr(stream_ingest, "EVENTS", 300)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_checks_untraced(tiny, name):
    result = harness.run_workload(name, 3, 0.01, False, ROOT)
    assert result.details["checks_failed"] == []
    assert result.correct and result.failed == 0 and result.attempted > 0
    assert [key for key in result.metrics] == [n for n, _ in harness.END_TO_END]
    assert all(value > 0 for value, _unit in result.metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_traced_is_attributed(tiny, name, tmp_path):
    result = harness.run_workload(name, 3, 0.01, True, ROOT, spans_dir=tmp_path)
    assert result.details["checks_failed"] == []
    assert result.correct
    assert [key for key in result.metrics] == [n for n, _, _ in PER_LAYER]
    values = {key: value for key, (value, _unit) in result.metrics.items()}
    assert values["unattributed_ratio"] < 0.10
    assert all(math.isfinite(value) for value in values.values())


def test_same_seed_runs_count_the_same(tiny, tmp_path):
    counts = [n for n, _, kind in PER_LAYER if kind == "count"]
    for name in ("batch_ddos", "stream_ingest", "live_mixed"):
        runs = [
            harness.run_workload(name, 5, 0.01, True, ROOT, spans_dir=tmp_path)
            for _ in range(2)
        ]
        first, second = ({k: r.metrics[k][0] for k in counts} for r in runs)
        assert first == second, name
        assert any(first.values()), name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    assert set(declared) <= set(WORKLOADS) and len(declared) == len(set(declared))
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in PER_LAYER
    ]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_ddos",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
