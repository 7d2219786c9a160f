"""Run one workload, check it, and assemble the metrics it reports.

A workload (see :mod:`perfbench.workloads`) repeats *rounds* — a batch
pass, a live episode, a dashboard sweep, a stream replay — until the run's
seconds are spent.  Inside a round it times each *operation* through a
:class:`Recorder`; only those intervals count towards throughput and
latency.  Set-up is timed separately, several times per run, and reported
as its median.  Every timing is rescaled to a reference host speed
(:class:`HostSpeed`), which a fixed kernel measures throughout the run.

With tracing off the run reports :data:`END_TO_END`.  With tracing on it
runs the same workload twice, first untraced and then with every layer's
entry points wrapped (:mod:`perfbench.trace`), and reports the per-layer
metrics of the traced half plus the tracing overhead between the halves.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.trace import (
    PER_LAYER,
    UNATTRIBUTED,
    Tracer,
    instrument,
    layer_metrics,
    layer_probes,
)

#: End-to-end metrics: every workload reports all of them.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Units of the named end-to-end metrics each workload reports in its
#: details line, besides the generic :data:`END_TO_END` values.
NAMED_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "batch_entries_per_s": "1/s",
    "model_build_s": "s",
    "validate_s": "s",
    "live_pkts_per_s": "1/s",
    "time_to_detect_s": "sim-s",
    "nb_qps": "1/s",
    "nb_p50_us": "us",
    "nb_p99_us": "us",
    "stream_events_per_s": "1/s",
    "stream_p99_us": "us",
}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Where the traced run writes its spans, relative to the checkout.
OUTPUT_DIR = ".perfbench-out"

#: The calibration kernel's time on the reference host: timings are
#: reported as if the host ran the kernel in exactly this long.
KERNEL_REF_S = 0.0015
#: The kernel runs about once per this many seconds of a run ...
KERNEL_EVERY_S = 0.05
#: ... and at most this many times in a row (around a set-up, or after a
#: long operation).
KERNEL_BURST = 8
#: An interval is rescaled by the kernel runs within this many seconds of it.
KERNEL_SPAN_S = 0.5


class _Row:
    __slots__ = ("ip", "value", "key")

    def __init__(self, ip: str, value: float, key: int) -> None:
        self.ip, self.value, self.key = ip, value, key


def speed_kernel() -> float:
    """A fixed piece of plain-Python work shaped like the program's own:
    dicts and small objects built, grouped, sorted, filtered and summed."""
    rng = random.Random(7)
    docs = [
        {"ip": "10.0.%d.%d" % (i % 256, i // 256), "value": rng.random(),
         "key": i % 17}
        for i in range(1500)
    ]
    rows = [_Row(doc["ip"], doc["value"], doc["key"]) for doc in docs]
    groups: Dict[int, List[_Row]] = {}
    for row in rows:
        groups.setdefault(row.key, []).append(row)
    total = 0.0
    for _key, group in sorted(groups.items()):
        group.sort(key=lambda row: row.value)
        total += sum(row.value for row in group if row.ip > "10.0.5")
    return total


class HostSpeed:
    """How fast the host runs plain Python, tracked through a run.

    A shared host slows every process on it for stretches of seconds to
    minutes — by 20-40% on the 2-CPU host this was tuned on — and the
    program's wall times move with it.  :func:`speed_kernel`, timed
    between operations (never inside one), moves the same way; an interval
    is rescaled by ``KERNEL_REF_S`` over the median kernel time around it,
    which leaves the program's own cost and removes most of the host's.
    Collection is off while the kernel runs, so its time does not depend
    on how much the program has allocated.
    """

    def __init__(self) -> None:
        #: When each kernel run ended (perf_counter), and how long it took.
        self.whens: List[float] = []
        self.seconds: List[float] = []
        for _ in range(3):  # warm the kernel's code and allocator paths
            speed_kernel()
        self._last = -math.inf

    def sample(self, burst: bool = False) -> None:
        """Run the kernel if it is due (``KERNEL_BURST`` times when
        ``burst``), once per ``KERNEL_EVERY_S`` since the last run."""
        now = time.perf_counter()
        if burst:
            runs = KERNEL_BURST
        else:
            runs = min(KERNEL_BURST, int((now - self._last) / KERNEL_EVERY_S))
        if runs <= 0:
            return
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(runs):
                start = time.perf_counter()
                speed_kernel()
                end = time.perf_counter()
                self.whens.append(end)
                self.seconds.append(end - start)
        finally:
            if collecting:
                gc.enable()
        self._last = time.perf_counter()

    def scale(self, start: float, end: float) -> float:
        """``KERNEL_REF_S`` over the median kernel time within
        ``KERNEL_SPAN_S`` of ``[start, end]``; the nearest runs when none
        is that close."""
        low = bisect.bisect_left(self.whens, start - KERNEL_SPAN_S)
        high = bisect.bisect_right(self.whens, end + KERNEL_SPAN_S)
        if low == high:
            low, high = max(0, low - 1), min(len(self.whens), low + 1)
        return KERNEL_REF_S / statistics.median(self.seconds[low:high])

    def summary(self) -> Dict[str, float]:
        return {
            "kernel_runs": len(self.seconds),
            "kernel_min_s": min(self.seconds),
            "kernel_median_s": statistics.median(self.seconds),
            "kernel_max_s": max(self.seconds),
        }


class Recorder:
    """Times a workload's operations; in a traced phase each operation
    is also the root span its layer spans nest under."""

    def __init__(self, host: HostSpeed, tracer: Optional[Tracer] = None) -> None:
        self.host = host
        #: (start, elapsed wall seconds) of each operation.
        self.samples: List[Tuple[float, float]] = []
        #: (operations so far, work units so far) after each round.
        self.round_ends: List[Tuple[int, float]] = []
        self._tracer = tracer
        self._start = 0.0

    def start(self) -> None:
        self.host.sample()
        if self._tracer is not None:
            self._tracer.push("bench.op", UNATTRIBUTED)
        self._start = time.perf_counter()

    def stop(self) -> float:
        elapsed = time.perf_counter() - self._start
        if self._tracer is not None:
            self._tracer.pop()
        self.samples.append((self._start, elapsed))
        return elapsed

    def end_round(self, units_so_far: float) -> None:
        self.round_ends.append((len(self.samples), units_so_far))

    def scaled(self) -> List[float]:
        """Every operation's time rescaled to the reference host."""
        self.host.sample(burst=True)  # the last operations' right neighbours
        return [
            elapsed * self.host.scale(start, start + elapsed)
            for start, elapsed in self.samples
        ]

    def typical_round(self, times: List[float]) -> Tuple[List[float], float]:
        """The median time of each operation position across rounds (the
        k-th operation of every round is the same work), and the median
        work units of a round."""
        rounds: List[List[float]] = []
        units: List[float] = []
        first_op, first_units = 0, 0.0
        for op_end, units_so_far in self.round_ends:
            rounds.append(times[first_op:op_end])
            units.append(units_so_far - first_units)
            first_op, first_units = op_end, units_so_far
        positions = max(len(ops) for ops in rounds)
        medians = [
            statistics.median(ops[k] for ops in rounds if len(ops) > k)
            for k in range(positions)
        ]
        return medians, statistics.median(units)


@dataclass
class Outcome:
    """What one phase of a workload did and whether it was right."""

    #: Work units completed inside timed operations (the throughput base).
    units: float = 0.0
    #: Operations attempted and failed (the ``error_rate`` base).
    attempted: int = 0
    failed: int = 0
    #: Descriptions of failed correctness checks.
    failures: List[str] = field(default_factory=list)
    #: Workload-specific named metrics (``model_build_s``, ...).
    named: Dict[str, float] = field(default_factory=dict)
    #: Per-layer gauges read at the end of the phase.
    gauges: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest(root: Path) -> str:
    """sha256 over the program's source files: identifies the code even
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_metadata(root: Path) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(root),
        "src_digest": _source_digest(root),
    }


def measured_config() -> Dict[str, Any]:
    """The program's mode switches as this process sees them."""
    from repro.compute.backends import BACKEND_ENV_VAR
    from repro.perf import columnar, fastpath, sketch
    from repro.telemetry import get_telemetry

    return {
        "fast_path": fastpath.ENABLED,
        "columnar": columnar.ENABLED,
        "sketch": sketch.ENABLED,
        "telemetry": get_telemetry().enabled,
        "compute_backend": os.environ.get(BACKEND_ENV_VAR, "serial"),
    }


def _timed_setup(workload, seed: int, setup_times: List[float], host: HostSpeed):
    """Set up once; appends the set-up time rescaled to the reference host."""
    gc.collect()
    host.sample(burst=True)
    start = time.perf_counter()
    state = workload.setup(seed)
    end = time.perf_counter()
    host.sample(burst=True)
    setup_times.append((end - start) * host.scale(start, end))
    return state


def run_phase(
    workload,
    seed: int,
    seconds: float,
    recorder: Recorder,
    outcome: Outcome,
    setup_times: List[float],
    state: Any = None,
) -> int:
    """Repeat rounds until ``seconds`` pass (and at least
    ``workload.min_rounds`` ran); returns the number of rounds.  A
    workload with ``setup_per_round`` sets up inside the timed loop, once
    per round; any other is set up before it unless ``state`` is given."""
    host = recorder.host
    if state is None and not workload.setup_per_round:
        state = _timed_setup(workload, seed, setup_times, host)
    rounds = 0
    start = time.perf_counter()
    while rounds < workload.min_rounds or time.perf_counter() - start < seconds:
        if workload.setup_per_round:
            state = None  # free the previous round's stack first
            state = _timed_setup(workload, seed, setup_times, host)
        workload.round(state, recorder, outcome)
        recorder.end_round(outcome.units)
        rounds += 1
    workload.finish(state, outcome)
    return rounds


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    details: Dict[str, Any]

    def final_line(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _timings(recorder: Recorder, times: List[float]) -> Dict[str, float]:
    """Throughput and latency of the typical round built from ``times``."""
    medians, units = recorder.typical_round(times)
    return {
        "throughput_per_s": units / math.fsum(medians),
        "latency_p50_ms": percentile(medians, 50) * 1e3,
        "latency_p99_ms": percentile(medians, 99) * 1e3,
    }


def _end_to_end(
    recorder: Recorder, setup_times: List[float]
) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, on the reference host (see
    :class:`HostSpeed`).  Each operation position's median across rounds
    makes a typical round; throughput is its work units over its time,
    and the latency percentiles are taken over its operations.  A
    slowdown the rescaling misses moves a median only when it covers more
    than half the rounds."""
    values = {
        **_timings(recorder, recorder.scaled()),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup_times),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    spans_dir: Optional[Path] = None,
) -> RunResult:
    """One run of workload ``name``; a traced run writes its spans to
    ``spans_dir`` (default :data:`OUTPUT_DIR` under ``root``)."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]()
    setup_times: List[float] = []
    details: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_metadata(root),
        "config": measured_config(),
    }
    host = HostSpeed()
    if not trace:
        state = None
        if not workload.setup_per_round:
            for _ in range(SETUP_REPEATS):
                state = None  # free the previous set-up first
                state = _timed_setup(workload, seed, setup_times, host)
        recorder, outcome = Recorder(host), Outcome()
        rounds = run_phase(workload, seed, seconds, recorder, outcome,
                           setup_times, state)
        metrics = _end_to_end(recorder, setup_times)
        details["host_speed"] = host.summary()
        details["operations"] = len(recorder.samples)
        details["unscaled"] = _timings(
            recorder, [elapsed for _, elapsed in recorder.samples]
        )
        details["setup_times_s"] = setup_times
        outcomes = [outcome]
        named = {
            "setup_s": metrics["setup_s"][0],
            "peak_rss_mb": metrics["peak_rss_mb"][0],
            "error_rate": outcome.failed / max(1, outcome.attempted),
            **workload.named_metrics(
                {key: value for key, (value, _unit) in metrics.items()}, outcome
            ),
        }
        details["named_metrics"] = {
            key: {"value": value, "unit": NAMED_UNITS[key]}
            for key, value in named.items()
        }
    else:
        plain_recorder, plain = Recorder(host), Outcome()
        run_phase(workload, seed, seconds / 2, plain_recorder, plain, setup_times)
        tracer = Tracer()
        traced_recorder, traced = Recorder(host, tracer), Outcome()
        with instrument(tracer, layer_probes()):
            rounds = run_phase(workload, seed, seconds / 2, traced_recorder,
                               traced, setup_times)
        overhead = (
            (math.fsum(traced_recorder.scaled()) / traced.units)
            / (math.fsum(plain_recorder.scaled()) / plain.units)
            - 1.0
        )
        values = layer_metrics(tracer, rounds, traced.gauges, overhead)
        metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
        outcomes = [plain, traced]
        spans_path = (spans_dir or root / OUTPUT_DIR) / f"spans-{name}-seed{seed}.csv"
        tracer.write_spans(spans_path)
        details["spans"] = {
            "file": str(spans_path),
            "recorded": len(tracer.spans),
            "dropped": tracer.dropped,
        }
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    failures = [message for o in outcomes for message in o.failures]
    details["rounds"] = rounds
    details["error_rate"] = failed / attempted if attempted else 0.0
    details["checks_failed"] = failures
    return RunResult(
        correct=not failures and failed == 0 and attempted > 0,
        attempted=max(1, attempted),
        failed=failed,
        metrics=metrics,
        details=details,
    )

