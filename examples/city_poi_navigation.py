"""Scenario: continuous nearest points of interest while walking a city.

This is the paper's motivating LBS example ("report the 5 nearest points of
interest continuously while a tourist is walking around a city"), made
concrete:

* the POIs are *clustered* (a Gaussian mixture), like real downtown/suburb
  densities;
* the tourist follows a random-waypoint walk;
* the same query is answered by INS and by every baseline, each one query
  on one serving engine over the POIs, and the example prints the
  comparison table the evaluation section of the paper would plot —
  recomputations, communication and client work.

Run with::

    python examples/city_poi_navigation.py
"""

from __future__ import annotations

from repro.baselines import METHOD_KINDS, baseline_kinds
from repro.core.server import MovingKNNServer
from repro.queries.kinds import registered
from repro.simulation.report import format_table
from repro.simulation.server_sim import run_methods
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.workloads.datasets import clustered_points, data_space
from repro.workloads.scenarios import Scenario


def build_scenario() -> Scenario:
    """A clustered-POI city with a 15-minute walking trajectory."""
    extent = 10_000.0  # a 10 km x 10 km city
    points = clustered_points(3_000, clusters=12, extent=extent, seed=21)
    trajectory = random_waypoint_trajectory(
        data_space(extent), steps=400, step_length=20.0, seed=22
    )
    return Scenario(
        name="city-poi-walk",
        metric="euclidean",
        objects=points,
        network=None,
        trajectories=[trajectory],
        ks=[5],
        rho=1.6,
        step_length=20.0,
        extent=extent,
    )


def main() -> None:
    scenario = build_scenario()
    [k] = scenario.ks
    print(f"scenario: {scenario.name}  (n={len(scenario.objects)}, k={k}, "
          f"{scenario.timestamps} timestamps)")
    print()

    engine = MovingKNNServer(scenario.objects)
    methods = {
        name: (kind, k, scenario.rho)
        for name, kind in METHOD_KINDS["euclidean"].items()
    }
    with registered(*baseline_kinds(scenario.step_length)):
        runs = run_methods(engine, scenario.trajectories[0], methods)
    columns = (
        "method", "full_recomputations", "local_reorders", "transmitted_objects",
        "distance_computations", "validation_seconds", "construction_seconds",
        "elapsed_seconds",
    )
    print(format_table(list(runs.values()), columns=columns,
                       title="continuous 5-NN POI query while walking"))
    print()
    ins = runs["INS"]["transmitted_objects"]
    naive = runs["Naive"]["transmitted_objects"]
    print(
        f"INS ships {ins} objects instead of {naive} "
        f"({1.0 - ins / naive:.0%} less communication than recomputing every timestamp)."
    )


if __name__ == "__main__":
    main()
