#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch_ddos --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``); the line before
it carries the run's details — host, configuration, seed, the workload's
named metrics and any failed check.  The exit code is 0 only when every
check passed.  ``--workload all`` runs every workload in its own process
and prints a table of their named metrics.

Every ``ATHENA_*`` variable is removed from the environment before the
program is imported, so each run measures the default configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("batch_ddos", "live_mixed", "nb_serve", "stream_ingest")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in its own process; a table of named metrics."""
    rows, correct = [], True
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or len(lines) < 2:
            sys.stderr.write(completed.stderr)
        correct = correct and completed.returncode == 0
        if len(lines) < 2:
            rows.append((name, "error", "no result", ""))
            continue
        details = json.loads(lines[-2])["perfbench"]
        final = json.loads(lines[-1])
        metrics = details.get("named_metrics") or final["metrics"]
        for key, metric in metrics.items():
            value = metric["value"]
            shown = "none" if value is None else f"{value:.6g}"
            rows.append((name, key, shown, metric["unit"]))
        for failure in details["checks_failed"]:
            rows.append((name, "CHECK FAILED", failure, ""))
    width = max(len(row[1]) for row in rows)
    for workload, key, value, unit in rows:
        print(f"{workload:<14} {key:<{width}} {value} {unit}")
    print("all checks passed" if correct else "some checks FAILED")
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    for key in [k for k in os.environ if k.startswith("ATHENA_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    print(json.dumps({"perfbench": result.details}, sort_keys=True))
    print(json.dumps(result.final_line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
