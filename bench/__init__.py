"""The repo's benchmark: five named workloads, end-to-end metrics, one layer ledger.

``BENCHMARK.json`` at the repository root declares the command, the workloads
and every metric; ``bench/README.md`` explains them.  Nothing under ``src/``
imports this package.
"""
