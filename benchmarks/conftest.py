"""Shared infrastructure for the per-release ``bench_pr*`` scripts.

The paper's experiments are one sweep (``benchmarks/paper.py``).  Each
``bench_pr*`` script

* runs its workload exactly once inside the pytest-benchmark timer
  (``benchmark.pedantic(..., rounds=1)``), so ``--benchmark-only`` reports a
  wall-clock figure per experiment, and
* emits its result table both to stdout and to
  ``benchmarks/results/<experiment>.txt``, regenerated on every run.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Sequence

import pytest

#: Directory where each experiment writes its result table.
RESULTS_DIRECTORY = pathlib.Path(__file__).parent / "results"


def emit_table(name: str, table: str) -> None:
    """Print a result table and persist it under ``benchmarks/results/``."""
    print()
    print(table)
    RESULTS_DIRECTORY.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIRECTORY / f"{name}.txt").write_text(table + "\n", encoding="utf-8")


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under the benchmark timer.

    The experiments are full simulations, so repeating them for statistical
    rounds would multiply the harness runtime without adding information;
    one timed round per experiment matches how the paper reports end-to-end
    costs.
    """

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
