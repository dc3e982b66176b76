"""Tier-1 smoke tests for the road benchmarks.

The benchmark modules under ``benchmarks/`` are only collected when invoked
explicitly (their files are named ``bench_*``), so a regression on the
perf-critical road paths — the road method comparison, the incremental
diagram repair, the batch crossover machinery — used to surface only when
somebody ran the benchmarks by hand.  These smoke tests import the road
benchmarks and drive their ``--smoke`` tiny-N modes inside the default
``pytest -x -q`` run, so a perf-path breakage fails tier-1 immediately.

Timing assertions are deliberately absent: tiny-N wall clocks are noise.
The smoke runs assert structural invariants only.
"""

import pathlib
import sys

import pytest

# The benchmarks package lives at the repository root, next to tests/.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from benchmarks.bench_e5_road_vary_k import sweep as e5_sweep
from benchmarks.bench_fig2_road_mis_ins import figure2_rows
from benchmarks.bench_fig3_road_demo import run_demo as fig3_run_demo
from benchmarks.bench_pr2_batch_crossover import run_benchmark as crossover_benchmark


class TestRoadBenchmarkSmoke:
    def test_e5_smoke_preserves_the_method_ordering(self):
        rows = e5_sweep(smoke=True)
        by_method = {row["method"]: row for row in rows}
        assert {"Naive-road", "INS-road", "V*-road"} <= set(by_method)
        assert (
            by_method["INS-road"]["recomputations"]
            < by_method["Naive-road"]["recomputations"]
        )

    def test_fig2_smoke_theorem1_holds(self):
        rows = figure2_rows(smoke=True)
        assert rows and all(row["theorem1_holds"] for row in rows)

    def test_fig3_smoke_runs_the_demo(self):
        row, run = fig3_run_demo(smoke=True)
        assert row["recomputations"] < row["timestamps"]

    def test_pr2_batch_crossover_smoke(self):
        rows, _ = crossover_benchmark(smoke=True)
        assert rows and all(row["incremental_s"] > 0 and row["bulk_rebuild_s"] > 0 for row in rows)
