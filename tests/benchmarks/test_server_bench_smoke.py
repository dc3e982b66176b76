"""Tier-1 smoke tests for the PR2/PR3 index-maintenance and serving benchmarks.

The benchmark modules under ``benchmarks/`` are only collected when invoked
explicitly (their files are named ``bench_*``), so these smoke tests drive
their ``--smoke`` tiny-N modes inside the default ``pytest -x -q`` run — a
regression on the maintenance and serving paths (the plane and road batch
crossover machinery, delta dispatch, lazy settling) fails tier-1 immediately
instead of waiting for somebody to run the benchmarks by hand.

Timing assertions are deliberately absent: tiny-N wall clocks are noise.
The smoke runs assert structural invariants only (identical answers across
invalidation modes, strictly fewer retrievals in delta mode).
"""

import pathlib
import sys

# The benchmarks package lives at the repository root, next to tests/.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from benchmarks.bench_pr2_batch_crossover import run_benchmark as crossover_benchmark
from benchmarks.bench_pr3_road_batch_crossover import (
    run_benchmark as road_crossover_benchmark,
)
from benchmarks.bench_pr3_server_delta_refresh import (
    run_benchmark as delta_refresh_benchmark,
)


class TestServerBenchmarkSmoke:
    def test_pr3_delta_refresh_smoke_answers_identical_fewer_retrievals(self):
        rows, speedups, answers_identical = delta_refresh_benchmark(smoke=True)
        assert answers_identical
        by_mode = {row["invalidation"]: row for row in rows}
        assert by_mode["delta"]["retrievals"] < by_mode["flag"]["retrievals"]
        assert by_mode["delta"]["transmitted"] < by_mode["flag"]["transmitted"]
        # The flag oracle never absorbs anything; the delta mode does.
        assert by_mode["flag"]["absorbed"] == 0
        assert speedups["serving"] > 0 and speedups["wall"] > 0

    def test_pr2_batch_crossover_smoke(self):
        rows, _ = crossover_benchmark(smoke=True)
        assert rows and all(row["incremental_s"] > 0 and row["bulk_rebuild_s"] > 0 for row in rows)

    def test_pr3_road_crossover_smoke_runs_both_strategies(self):
        rows, _ = road_crossover_benchmark(smoke=True)
        assert rows and all(
            row["incremental_s"] > 0 and row["bulk_rebuild_s"] > 0 for row in rows
        )
