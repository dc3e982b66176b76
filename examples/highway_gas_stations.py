"""Scenario: the 3 nearest gas stations while driving on a road network.

The paper's other motivating example ("report the 3 nearest gas stations
continuously while one drives on a highway"), in Road Network mode:

* the road network is a synthetic ring-and-radial city with a surrounding
  grid (standing in for the real maps the demo loads; see
  :mod:`repro.roadnet.generators`),
* gas stations sit on network vertices,
* the car drives a constant-speed random route along the roads,
* the INS road-network processor (Theorems 1 and 2) answers the moving
  3-NN query and is compared against V* and against recomputing with
  incremental network expansion at every timestamp — each one query on one
  serving engine over the stations.

Run with::

    python examples/highway_gas_stations.py
"""

from __future__ import annotations

from repro.baselines import METHOD_KINDS, baseline_kinds
from repro.core.road_server import MovingRoadKNNServer
from repro.queries.kinds import registered
from repro.roadnet.generators import place_objects, random_planar_network
from repro.simulation.report import format_table
from repro.simulation.server_sim import run_methods
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
    engine = MovingRoadKNNServer(network, stations)
    # INS-road, V*-road (x = 4), naive INE.
    methods = {name: (kind, k, 1.6) for name, kind in METHOD_KINDS["road"].items()}
    with registered(*baseline_kinds(75.0)):
        runs = run_methods(engine, route, methods)
    columns = (
        "method", "full_recomputations", "local_reorders", "transmitted_objects",
        "settled_vertices", "elapsed_seconds",
    )
    print()
    print(format_table(list(runs.values()), columns=columns,
                       title=f"continuous {k}-NN gas stations along a 30 km drive"))

    # Show one frame of the demonstration (the Figure 3 style rendering).
    answers = runs["INS-road"]["answers"]
    frame = next((r for r in answers if not r.was_valid and r.timestamp > 0), answers[0])
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
