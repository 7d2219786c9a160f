"""End-to-end benchmark of Athena's four pipelines (see README.md).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one seeded workload and prints its metrics; the
modules here are the harness (:mod:`perfbench.harness`), the span tracer
used by the traced mode (:mod:`perfbench.trace`) and the workloads
(:mod:`perfbench.workloads`).
"""
