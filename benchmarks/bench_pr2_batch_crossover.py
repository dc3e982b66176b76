"""PR2 — measure the batch_update patch-vs-rebuild crossover.

``VoRTree.batch_update`` has to decide, per burst, whether to absorb the
operations one by one through the incremental Delaunay patching or to apply
them structurally and rebuild the neighbour map once.  The seed shipped a
guessed threshold (``max(8, n / 8)``); this micro-benchmark measures the
true crossover (a ROADMAP open item) so the constant in
:data:`repro.index.vortree.VoRTree.BULK_REBUILD_FRACTION` is a measurement,
not a guess.

For several population sizes n and burst sizes m it times the same mixed
2:1 insert/delete burst two ways: through the per-object public mutators
(``VoRTree.insert`` / ``VoRTree.delete``) on a freshly built tree, and as a
from-scratch ``VoRTree`` over the burst's final population — the work of the
single rebuild — each the minimum over three seeds.  It reports the smallest
m where the rebuild wins.  Results land in
``benchmarks/results/PR2_batch_crossover.{txt,json}``.

Run standalone (``python benchmarks/bench_pr2_batch_crossover.py``, add
``--smoke`` for a tiny-N sanity run) or via pytest
(``pytest benchmarks/bench_pr2_batch_crossover.py``).
"""

import argparse
import json
import pathlib
import random
import time

from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.simulation.report import format_table
from repro.workloads.datasets import uniform_points

from benchmarks.conftest import RESULTS_DIRECTORY, emit_table

POPULATIONS = (2_000, 20_000)
#: Burst sizes as fractions of the population.
BURST_FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 1.0)
#: Each cell is the minimum over these seeds, for either path.
SEEDS = (17, 18, 19)
EXTENT = 10_000.0

SMOKE_POPULATIONS = (200,)
SMOKE_BURST_FRACTIONS = (0.1, 0.5)

JSON_PATH = RESULTS_DIRECTORY / "PR2_batch_crossover.json"


def time_burst(n: int, burst: int, seed: int):
    """Seconds to absorb one mixed 2:1 insert/delete burst of size ``burst``:
    ``(per-object mutators, from-scratch build of the final population)``."""
    rng = random.Random(seed)
    points = uniform_points(n, extent=EXTENT, seed=seed)
    inserts = [
        Point(rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT))
        for _ in range(burst - burst // 3)
    ]
    deletes = rng.sample(range(n), burst // 3)
    tree = VoRTree(list(points))
    started = time.perf_counter()
    for point in inserts:
        tree.insert(point)
    for index in deletes:
        tree.delete(index)
    incremental = time.perf_counter() - started
    removed = set(deletes)
    final = [point for index, point in enumerate(points) if index not in removed] + inserts
    started = time.perf_counter()
    VoRTree(final)
    return incremental, time.perf_counter() - started


def run_benchmark(smoke: bool = False):
    populations = SMOKE_POPULATIONS if smoke else POPULATIONS
    fractions = SMOKE_BURST_FRACTIONS if smoke else BURST_FRACTIONS
    rows = []
    crossovers = {}
    for n in populations:
        crossover_fraction = None
        for fraction in fractions:
            burst = max(2, int(n * fraction))
            timings = [time_burst(n, burst, seed) for seed in (SEEDS[:1] if smoke else SEEDS)]
            incremental = min(timing[0] for timing in timings)
            bulk = min(timing[1] for timing in timings)
            rows.append(
                {
                    "n": n,
                    "burst": burst,
                    "burst_fraction": fraction,
                    "incremental_s": round(incremental, 4),
                    "bulk_rebuild_s": round(bulk, 4),
                    "winner": "incremental" if incremental <= bulk else "bulk",
                }
            )
            if crossover_fraction is None and bulk < incremental:
                crossover_fraction = fraction
        crossovers[n] = crossover_fraction
    return rows, crossovers


def write_results(rows, crossovers) -> None:
    RESULTS_DIRECTORY.mkdir(parents=True, exist_ok=True)
    JSON_PATH.write_text(
        json.dumps(
            {
                "bench": "pr2_batch_crossover",
                "rows": rows,
                "crossover_fraction_by_n": {str(n): f for n, f in crossovers.items()},
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def test_pr2_batch_crossover(run_once):
    rows, crossovers = run_once(run_benchmark)
    write_results(rows, crossovers)
    emit_table(
        "PR2_batch_crossover",
        format_table(rows, title="PR2: batch_update patch-vs-rebuild crossover"),
    )
    # Small bursts must favour patching; near-replacement bursts must not.
    for n in POPULATIONS:
        small = [r for r in rows if r["n"] == n and r["burst_fraction"] <= 0.05]
        assert all(r["winner"] == "incremental" for r in small), small


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny-N sanity run")
    args = parser.parse_args()
    rows, crossovers = run_benchmark(smoke=args.smoke)
    for row in rows:
        print(row)
    print("crossover fractions:", crossovers)
    if not args.smoke:
        write_results(rows, crossovers)
        print(f"written to {JSON_PATH}")


if __name__ == "__main__":
    main()
