"""Scenario: the 3 nearest gas stations while driving on a road network.

The paper's other motivating example ("report the 3 nearest gas stations
continuously while one drives on a highway"), in Road Network mode:

* the road network is a synthetic ring-and-radial city with a surrounding
  grid (standing in for the real maps the demo loads; see
  :mod:`repro.roadnet.generators`),
* gas stations sit on network vertices,
* the car drives a constant-speed random route along the roads,
* the INS road-network processor (Theorems 1 and 2) answers the moving
  3-NN query and is compared against recomputing with incremental network
  expansion at every timestamp.

Run with::

    python examples/highway_gas_stations.py
"""

from __future__ import annotations

from repro.core.ins_road import INSRoadProcessor
from repro.baselines import NaiveRoadProcessor, VStarRoadProcessor
from repro.roadnet.generators import place_objects, random_planar_network
from repro.simulation.metrics import summarize
from repro.simulation.report import format_table
from repro.simulation.simulator import simulate
from repro.trajectory.road import network_random_walk
from repro.viz.ascii_network import render_network_state


def main() -> None:
    # A 300-vertex irregular road network spanning ~8 km.
    network = random_planar_network(300, extent=8_000.0, removal_fraction=0.35, seed=31)
    stations = place_objects(network, 45, seed=32)
    print(
        f"road network: {network.vertex_count} vertices, {network.edge_count} edges, "
        f"{len(stations)} gas stations"
    )

    # A 30 km drive at constant speed (75 m per timestamp).
    route = network_random_walk(network, steps=400, step_length=75.0, seed=33)

    k = 3
    processors = [
        INSRoadProcessor(network, stations, k=k, rho=1.6),
        VStarRoadProcessor(network, stations, k=k, auxiliary=4, step_length=75.0),
        NaiveRoadProcessor(network, stations, k=k),
    ]
    rows = []
    runs = {}
    for processor in processors:
        run = simulate(processor, route)
        runs[processor.name] = run
        summary = summarize(run)
        rows.append(
            {
                "method": summary.method,
                "recomputations": summary.full_recomputations,
                "local_reorders": summary.local_reorders,
                "objects_sent": summary.transmitted_objects,
                "dijkstra_settled": summary.settled_vertices,
                "elapsed_s": round(summary.elapsed_seconds, 3),
            }
        )
    print()
    print(format_table(rows, title=f"continuous {k}-NN gas stations along a 30 km drive"))

    # Show one frame of the demonstration (the Figure 3 style rendering).
    ins_run = runs["INS-road"]
    frame = next((r for r in ins_run.results if not r.was_valid and r.timestamp > 0),
                 ins_run.results[0])
    print()
    print(f"state at timestamp {frame.timestamp} ({frame.action.value}):")
    print(
        render_network_state(
            network, stations, route[frame.timestamp], frame.knn, frame.guard_objects,
            width=72, height=26,
        )
    )


if __name__ == "__main__":
    main()
