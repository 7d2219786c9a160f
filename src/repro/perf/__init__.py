"""repro.perf — opt-in mode flags and the benchmark-regression harness.

Three concerns live here (docs/PERF.md):

* :class:`Flag` — one process-wide boolean switch read from an
  ``ATHENA_*`` environment variable at import, with :meth:`Flag.set`,
  :meth:`Flag.refresh` and :meth:`Flag.scope` for tests and benches.
  Two instances exist:

  - :data:`columnar` (``ATHENA_COLUMNAR``, default **off**) opts batch
    detection into the numpy frame path of :mod:`repro.distdb.frame`.
    Both paths promise byte-identical matrices, marks, predictions and
    alerts; ``benchmarks/bench_scale.py`` compares the two.
  - :data:`sketch` (``ATHENA_SKETCH``, default **off**) makes feature
    generation emit the sketch-backed ``SKETCH_*`` scope from
    :mod:`repro.sketch` (docs/SKETCH.md).  Sketch features are
    approximate by design; ``benchmarks/bench_sketch.py`` gates their
    memory/recall contract.

  Components read ``flag.ENABLED`` per batch operation or per event, not
  at construction, so ``flag.scope(...)`` around a workload switches one
  run.
* :mod:`repro.perf.fastpath` — records that the hot paths are always
  on (``ENABLED = True``); the reference versions are test oracles.
* :mod:`repro.perf.harness` — measurement and comparison machinery for
  ``benchmarks/bench_hotpath.py`` and ``benchmarks/bench_scale.py``:
  time a workload under both paths, check results are identical,
  compute throughput and speedup, and persist ``BENCH_*.json`` so
  successive PRs accumulate a perf trajectory.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.perf.harness import BenchResult, HotpathReport, measure_throughput

_ENABLING = ("1", "true", "yes", "on")


class Flag:
    """A process-wide switch: "1" / "true" / "yes" / "on" in ``env_var``
    turn it on; anything else, or no variable, leaves it off."""

    def __init__(self, env_var: str) -> None:
        self.env_var = env_var
        #: Cached setting; an attribute read keeps the per-call cost of
        #: consulting the flag to one lookup.
        self.ENABLED = False
        self.refresh()

    def set(self, enabled: bool) -> None:
        """Force the flag (tests and the bench harness)."""
        self.ENABLED = bool(enabled)

    def refresh(self) -> bool:
        """Re-read the environment variable; returns the new setting."""
        raw = os.environ.get(self.env_var, "0")
        self.ENABLED = raw.strip().lower() in _ENABLING
        return self.ENABLED

    @contextmanager
    def scope(self, enabled: bool) -> Iterator[None]:
        """Temporarily force the flag, restoring the previous value on exit."""
        previous = self.ENABLED
        self.set(enabled)
        try:
            yield
        finally:
            self.set(previous)


#: Batch detection on numpy frames instead of documents.
columnar = Flag("ATHENA_COLUMNAR")
#: Sketch-backed ``SKETCH_*`` feature emission.
sketch = Flag("ATHENA_SKETCH")

__all__ = [
    "BenchResult",
    "Flag",
    "HotpathReport",
    "columnar",
    "measure_throughput",
    "sketch",
]
