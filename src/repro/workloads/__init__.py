"""Workload generation: data sets and named experiment scenarios.

* :mod:`repro.workloads.datasets` — synthetic point sets (uniform, clustered)
  standing in for the paper's POI data sets.
* :mod:`repro.workloads.scenarios` — one :class:`Scenario` describes a run
  on either metric (data objects, each query's trajectory and ``k``, and the
  object-update stream), built reproducibly by the named factories and used
  by the examples, the integration tests and the benchmark harness.
"""

from repro.workloads.datasets import clustered_points, uniform_points
from repro.workloads.scenarios import (
    ChurnSpec,
    HIGH_CHURN,
    LOW_CHURN,
    NO_CHURN,
    Scenario,
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
    "Scenario",
    "default_euclidean_scenario",
    "default_road_scenario",
    "euclidean_server_scenario",
    "road_server_scenario",
    "fig4_scenario",
    "update_stream",
]
