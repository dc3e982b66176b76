"""Experiment runner: compare several methods on a workload (the E-series).

The benchmark harness calls the two functions here:

* :func:`run_euclidean_comparison` — run INS and the Euclidean baselines on
  an :class:`~repro.workloads.scenarios.EuclideanScenario`.
* :func:`run_road_comparison` — run INS-road and the road baselines on a
  :class:`~repro.workloads.scenarios.RoadScenario`.

Each method builds its own server-side structure (R-tree, VoR-tree,
network Voronoi diagram), and both can cross-check every reported answer
against a brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.baselines import (
    NaiveProcessor,
    NaiveRoadProcessor,
    OrderKSafeRegionProcessor,
    VStarProcessor,
    VStarRoadProcessor,
)
from repro.core.ins_euclidean import INSProcessor
from repro.core.ins_road import INSRoadProcessor
from repro.geometry.point import Point
from repro.roadnet.location import NetworkLocation
from repro.roadnet.shortest_path import distances_from_location
from repro.simulation.metrics import RunSummary, summarize
from repro.simulation.simulator import SimulationRun, simulate
from repro.workloads.scenarios import EuclideanScenario, RoadScenario


@dataclass(frozen=True)
class MethodResult:
    """One method's outcome on one workload."""

    method: str
    summary: RunSummary
    run: SimulationRun


@dataclass(frozen=True)
class ExperimentResult:
    """All methods' outcomes on one workload."""

    scenario_name: str
    parameters: Dict[str, object]
    methods: List[MethodResult]

    def summary_rows(self) -> List[Dict[str, object]]:
        """Rows ready for :func:`repro.simulation.report.format_table`."""
        rows = []
        for method in self.methods:
            row = dict(self.parameters)
            row.update(method.summary.as_dict())
            rows.append(row)
        return rows

    def method(self, name: str) -> MethodResult:
        """Look up one method's result by report name."""
        for method in self.methods:
            if method.method == name:
                return method
        raise KeyError(f"no method named {name!r} in this experiment")


#: Method-name constants used by the benchmarks.
EUCLIDEAN_METHODS = ("INS", "OrderK-SR", "V*", "Naive")
ROAD_METHODS = ("INS-road", "V*-road", "Naive-road")


def euclidean_oracle(points: Sequence[Point]):
    """Brute-force distance oracle for Euclidean workloads."""

    def oracle(position: Point) -> Dict[int, float]:
        return {index: position.distance_to(point) for index, point in enumerate(points)}

    return oracle


def road_oracle(scenario: RoadScenario):
    """Brute-force (full Dijkstra) distance oracle for road workloads."""

    def oracle(position: NetworkLocation) -> Dict[int, float]:
        vertex_distances = distances_from_location(scenario.network, position)
        return {
            index: vertex_distances.get(vertex, float("inf"))
            for index, vertex in enumerate(scenario.object_vertices)
        }

    return oracle


def run_euclidean_comparison(
    scenario: EuclideanScenario,
    methods: Sequence[str] = EUCLIDEAN_METHODS,
    check_correctness: bool = False,
    vstar_auxiliary: int = 4,
) -> ExperimentResult:
    """Run the selected Euclidean methods on ``scenario``.

    Args:
        scenario: the workload.
        methods: subset of :data:`EUCLIDEAN_METHODS` to run.
        check_correctness: cross-check every answer against the brute-force
            oracle (slower; the integration tests always enable it, the
            benchmarks usually do not).
        vstar_auxiliary: the ``x`` parameter of the V* baseline.
    """
    oracle = euclidean_oracle(scenario.points) if check_correctness else None
    results: List[MethodResult] = []
    for method in methods:
        if method == "INS":
            processor = INSProcessor(scenario.points, scenario.k, rho=scenario.rho)
        elif method == "OrderK-SR":
            processor = OrderKSafeRegionProcessor(scenario.points, scenario.k)
        elif method == "V*":
            processor = VStarProcessor(
                scenario.points, scenario.k, auxiliary=vstar_auxiliary
            )
        elif method == "Naive":
            processor = NaiveProcessor(scenario.points, scenario.k)
        else:
            raise ValueError(f"unknown Euclidean method {method!r}")
        run = simulate(processor, scenario.trajectory, oracle=oracle)
        results.append(MethodResult(method=processor.name, summary=summarize(run), run=run))
    parameters = {
        "scenario": scenario.name,
        "n": len(scenario.points),
        "k": scenario.k,
        "rho": scenario.rho,
        "steps": scenario.timestamps,
        "step_length": scenario.step_length,
    }
    return ExperimentResult(
        scenario_name=scenario.name, parameters=parameters, methods=results
    )


def run_road_comparison(
    scenario: RoadScenario,
    methods: Sequence[str] = ROAD_METHODS,
    check_correctness: bool = False,
    vstar_auxiliary: int = 4,
) -> ExperimentResult:
    """Run the selected road-network methods on ``scenario``."""
    oracle = road_oracle(scenario) if check_correctness else None
    results: List[MethodResult] = []
    for method in methods:
        if method == "INS-road":
            processor = INSRoadProcessor(
                scenario.network, scenario.object_vertices, scenario.k, rho=scenario.rho
            )
        elif method == "V*-road":
            processor = VStarRoadProcessor(
                scenario.network,
                scenario.object_vertices,
                scenario.k,
                auxiliary=vstar_auxiliary,
                step_length=scenario.step_length,
            )
        elif method == "Naive-road":
            processor = NaiveRoadProcessor(
                scenario.network, scenario.object_vertices, scenario.k
            )
        else:
            raise ValueError(f"unknown road-network method {method!r}")
        run = simulate(processor, scenario.trajectory, oracle=oracle)
        results.append(MethodResult(method=processor.name, summary=summarize(run), run=run))
    parameters = {
        "scenario": scenario.name,
        "n": len(scenario.object_vertices),
        "k": scenario.k,
        "rho": scenario.rho,
        "steps": scenario.timestamps,
        "step_length": scenario.step_length,
    }
    return ExperimentResult(
        scenario_name=scenario.name, parameters=parameters, methods=results
    )
