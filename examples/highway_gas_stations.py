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

from repro.roadnet.generators import place_objects, random_planar_network
from repro.simulation.experiment import compare
from repro.simulation.report import format_table
from repro.trajectory.road import network_random_walk
from repro.viz.ascii_network import render_network_state
from repro.workloads.scenarios import RoadScenario


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
    scenario = RoadScenario(
        name="highway-gas-stations",
        network=network,
        object_vertices=stations,
        trajectory=route,
        k=k,
        rho=1.6,
        step_length=75.0,
    )
    runs = compare(scenario)  # INS-road, V*-road (x = 4), naive INE
    columns = (
        "method", "full_recomputations", "local_reorders", "transmitted_objects",
        "settled_vertices", "elapsed_seconds",
    )
    rows = [run.as_dict() for run in runs.values()]
    print()
    print(format_table(rows, columns=columns, title=f"continuous {k}-NN gas stations along a 30 km drive"))

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
