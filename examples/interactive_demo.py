"""Scenario: a terminal replay of the INSQ demonstration program.

The original INSQ system is a Scala Swing GUI (Figures 3 and 4 of the
paper).  This example is its terminal counterpart: it replays the 2D Plane
mode demonstration frame by frame, showing

* the data objects, the moving query object, the current kNN set and the
  current influential neighbour set (the paper's green/yellow dots), and
* the validity status derived from the two special circles (the farthest
  kNN member vs the nearest guard object).

By default it prints the frames around each invalidation event — exactly the
valid -> invalid transition Figure 4 illustrates.  Pass ``--all`` to watch
the whole trajectory.

Run with::

    python examples/interactive_demo.py [--all] [--k K] [--rho RHO]
"""

from __future__ import annotations

import argparse

from repro.core.server import MovingKNNServer
from repro.simulation.server_sim import run_methods
from repro.viz.ascii_plane import render_plane_state
from repro.workloads.scenarios import fig4_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true", help="print every timestamp")
    parser.add_argument("--k", type=int, default=5, help="number of nearest neighbours")
    parser.add_argument("--rho", type=float, default=1.6, help="prefetch ratio")
    arguments = parser.parse_args()

    scenario = fig4_scenario()
    [trajectory] = scenario.trajectories
    engine = MovingKNNServer(scenario.objects)
    query = {"INS": ("knn", arguments.k, arguments.rho)}
    run = run_methods(engine, trajectory, query)["INS"]
    answers = run["answers"]

    if arguments.all:
        frames = list(range(len(answers)))
    else:
        # The frame before and the frame of each invalidation (Figure 4 a/b).
        invalid = [r.timestamp for r in answers if not r.was_valid and r.timestamp > 0]
        frames = sorted({t for timestamp in invalid[:4] for t in (timestamp - 1, timestamp)})

    for timestamp in frames:
        result = answers[timestamp]
        position = trajectory[timestamp]
        print(result.describe())
        print(
            render_plane_state(
                scenario.objects,
                position,
                result.knn,
                result.guard_objects,
                width=70,
                height=26,
            )
        )
        print()

    print(
        f"summary: {run['timestamps']} timestamps, {run['knn_changes']} kNN changes, "
        f"{run['full_recomputations']} server recomputations, "
        f"{run['local_reorders']} local reorders"
    )


if __name__ == "__main__":
    main()
