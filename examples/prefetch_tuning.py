"""Scenario: tuning the prefetch ratio ρ for a deployment.

Section III of the paper introduces the prefetch ratio ρ as "a system
parameter to balance the query result communication and recomputation
costs".  This example shows how an operator would pick ρ for their workload:
it sweeps ρ over a realistic range for two query speeds (a pedestrian and a
vehicle), reports the resulting communication profile, and prints the ρ
minimising total transmitted objects for each speed.

Run with::

    python examples/prefetch_tuning.py
"""

from __future__ import annotations

from repro.core.server import MovingKNNServer
from repro.simulation.report import format_table
from repro.simulation.server_sim import run_methods
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.workloads.datasets import data_space, uniform_points

RHO_VALUES = (1.0, 1.2, 1.4, 1.6, 2.0, 2.5, 3.0)
SPEEDS = {"pedestrian (15 m/step)": 15.0, "vehicle (120 m/step)": 120.0}


def main() -> None:
    points = uniform_points(4_000, seed=41)
    k = 5

    for label, speed in SPEEDS.items():
        trajectory = random_waypoint_trajectory(
            data_space(), steps=300, step_length=speed, seed=42
        )
        # One engine, so one VoR-tree; one query per value of rho.
        engine = MovingKNNServer(points)
        runs = run_methods(engine, trajectory, {rho: ("knn", k, rho) for rho in RHO_VALUES})
        rows = []
        for rho, run in runs.items():
            rows.append(
                {
                    "rho": rho,
                    "prefetched": max(int(rho * k), k),
                    "recomputations": run["full_recomputations"],
                    "local_reorders": run["local_reorders"],
                    "objects_sent": run["transmitted_objects"],
                    "objects_per_step": round(run["transmitted_objects"] / run["timestamps"], 2),
                }
            )
        print(format_table(rows, title=f"prefetch ratio sweep — {label}, k={k}"))
        best = min(rows, key=lambda row: row["objects_sent"])
        print(f"-> lowest total communication at rho = {best['rho']}")
        print()


if __name__ == "__main__":
    main()
