"""PR3 — measure the road batch_update patch-vs-rebuild crossover.

``NetworkVoronoiDiagram.batch_update`` has to decide, per burst, whether to
absorb the operations one by one through the incremental repair floods or to
apply them structurally and run one from-scratch multi-source Dijkstra.  PR 2
shipped a guessed threshold (``max(16, n / 2)``); this micro-benchmark
measures the true crossover (a ROADMAP open item) the same way the Euclidean
one was measured in PR 2, so the constant in
:data:`repro.roadnet.network_voronoi.NetworkVoronoiDiagram.BULK_REBUILD_FRACTION`
is a measurement, not a guess.

For several object populations n (on a fixed grid network) and burst sizes m
it times the same mixed 2:1:1 move/insert/delete burst two ways: through the
per-object public mutators (``insert_object`` / ``move_object`` /
``remove_object``) on a freshly built diagram, and as a from-scratch
``NetworkVoronoiDiagram`` over the burst's final population — the work of
the single rebuild.  It reports the smallest m where the rebuild wins.
Results land in ``benchmarks/results/PR3_road_batch_crossover.{txt,json}``.

Run standalone (``python benchmarks/bench_pr3_road_batch_crossover.py``, add
``--smoke`` for a tiny-N sanity run) or via pytest
(``pytest benchmarks/bench_pr3_road_batch_crossover.py``).
"""

import argparse
import json
import pathlib
import random
import time

from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.simulation.report import format_table

from benchmarks.conftest import RESULTS_DIRECTORY, emit_table

GRID_ROWS = 40  # 40 x 40 = 1600 vertices, ~3.1k edges
POPULATIONS = (250, 500, 1_000)
#: Burst sizes as fractions of the population.
BURST_FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0)

SMOKE_GRID_ROWS = 10
SMOKE_POPULATIONS = (40,)
SMOKE_BURST_FRACTIONS = (0.2, 0.75)

JSON_PATH = RESULTS_DIRECTORY / "PR3_road_batch_crossover.json"


def time_burst(rows: int, n: int, burst: int, seed: int):
    """Seconds to absorb one mixed 2:1:1 move/insert/delete burst:
    ``(per-object mutators, from-scratch build of the final population)``."""
    rng = random.Random(seed)
    network = grid_network(rows, rows, spacing=100.0)
    objects = place_objects(network, n, seed=seed)
    vertices = network.vertices()
    move_count = burst // 2
    insert_count = burst // 4
    delete_count = max(0, burst - move_count - insert_count)
    moves = [
        (index, rng.choice(vertices))
        for index in rng.sample(range(n), min(move_count, n))
    ]
    moved = {index for index, _ in moves}
    deletable = [index for index in range(n) if index not in moved]
    deletes = rng.sample(deletable, min(delete_count, max(0, len(deletable) - 1)))
    inserts = [rng.choice(vertices) for _ in range(insert_count)]
    diagram = NetworkVoronoiDiagram(network, objects)
    started = time.perf_counter()
    for vertex in inserts:
        diagram.insert_object(vertex)
    for index, vertex in moves:
        diagram.move_object(index, vertex)
    for index in deletes:
        diagram.remove_object(index)
    incremental = time.perf_counter() - started
    final = list(objects)
    for index, vertex in moves:
        final[index] = vertex
    removed = set(deletes)
    final = [vertex for index, vertex in enumerate(final) if index not in removed] + inserts
    started = time.perf_counter()
    NetworkVoronoiDiagram(network, final)
    return incremental, time.perf_counter() - started


def run_benchmark(smoke: bool = False):
    rows_count = SMOKE_GRID_ROWS if smoke else GRID_ROWS
    populations = SMOKE_POPULATIONS if smoke else POPULATIONS
    fractions = SMOKE_BURST_FRACTIONS if smoke else BURST_FRACTIONS
    rows = []
    crossovers = {}
    for n in populations:
        crossover_fraction = None
        for fraction in fractions:
            burst = max(4, int(n * fraction))
            incremental, bulk = time_burst(rows_count, n, burst, seed=37)
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
                "bench": "pr3_road_batch_crossover",
                "grid_vertices": GRID_ROWS * GRID_ROWS,
                "rows": rows,
                "crossover_fraction_by_n": {str(n): f for n, f in crossovers.items()},
                "bulk_rebuild_fraction": NetworkVoronoiDiagram.BULK_REBUILD_FRACTION,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def test_pr3_road_batch_crossover(run_once):
    rows, crossovers = run_once(run_benchmark)
    write_results(rows, crossovers)
    emit_table(
        "PR3_road_batch_crossover",
        format_table(rows, title="PR3: road batch_update patch-vs-rebuild crossover"),
    )
    # Small bursts must favour the local repairs.
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
