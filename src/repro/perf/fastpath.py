"""The hot paths' mode record.

The indexed flow table, the compiled match predicate and the zero-copy
document reads are the only implementations in ``src/``; their original
reference versions are test oracles in ``tests/oracles.py``
(docs/PERF.md).  ``ENABLED`` stays so that run records which list the
mode switches keep their ``fast_path`` field; it is always ``True``.
"""

ENABLED = True
