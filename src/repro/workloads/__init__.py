"""Workload generation: data sets and named experiment scenarios.

* :mod:`repro.workloads.datasets` — synthetic point sets (uniform, clustered)
  standing in for the paper's POI data sets.
* :mod:`repro.workloads.scenarios` — fully specified, reproducible workload
  scenarios (data + trajectory + parameters) used by the examples, the
  integration tests and the benchmark harness.
"""

from repro.workloads.datasets import clustered_points, uniform_points
from repro.workloads.scenarios import (
    ChurnSpec,
    EuclideanScenario,
    EuclideanServerScenario,
    HIGH_CHURN,
    LOW_CHURN,
    NO_CHURN,
    RoadScenario,
    RoadServerScenario,
    default_euclidean_scenario,
    default_road_scenario,
    euclidean_server_scenario,
    fig4_scenario,
    road_server_scenario,
    update_stream,
)

__all__ = [
    "uniform_points",
    "clustered_points",
    "ChurnSpec",
    "LOW_CHURN",
    "HIGH_CHURN",
    "NO_CHURN",
    "EuclideanScenario",
    "RoadScenario",
    "EuclideanServerScenario",
    "RoadServerScenario",
    "default_euclidean_scenario",
    "default_road_scenario",
    "euclidean_server_scenario",
    "road_server_scenario",
    "fig4_scenario",
    "update_stream",
]
