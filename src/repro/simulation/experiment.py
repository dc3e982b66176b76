"""Compare several methods on one workload.

:data:`METHODS` maps every method's report name to a factory building its
processor from a scenario — an
:class:`~repro.workloads.scenarios.EuclideanScenario` for INS and the
Euclidean baselines, a :class:`~repro.workloads.scenarios.RoadScenario` for
INS-road and the road baselines.  :func:`compare` runs the selected methods
along the scenario's trajectory and, on request, cross-checks every reported
answer against the metric's brute-force oracle.

Each method builds its own server-side structure (a VoR-tree on the plane,
a network Voronoi diagram or none on roads).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Union

from repro.baselines import (
    NaiveProcessor,
    NaiveRoadProcessor,
    OrderKSafeRegionProcessor,
    VStarProcessor,
    VStarRoadProcessor,
)
from repro.core.ins_euclidean import INSProcessor
from repro.core.ins_road import INSRoadProcessor
from repro.core.processor import MovingKNNProcessor
from repro.geometry.point import Point
from repro.roadnet.location import NetworkLocation
from repro.roadnet.shortest_path import distances_from_location
from repro.simulation.simulator import SimulationRun, simulate
from repro.workloads.scenarios import EuclideanScenario, RoadScenario

Scenario = Union[EuclideanScenario, RoadScenario]

#: Report name -> processor factory, both metrics.  V* holds ``x = 4``
#: auxiliary objects on either metric.
METHODS: Dict[str, Callable[..., MovingKNNProcessor]] = {
    "INS": lambda s: INSProcessor(s.points, s.k, rho=s.rho),
    "OrderK-SR": lambda s: OrderKSafeRegionProcessor(s.points, s.k),
    "V*": lambda s: VStarProcessor(s.points, s.k, auxiliary=4),
    "Naive": lambda s: NaiveProcessor(s.points, s.k),
    "INS-road": lambda s: INSRoadProcessor(
        s.network, s.object_vertices, s.k, rho=s.rho
    ),
    "V*-road": lambda s: VStarRoadProcessor(
        s.network, s.object_vertices, s.k, auxiliary=4, step_length=s.step_length
    ),
    "Naive-road": lambda s: NaiveRoadProcessor(s.network, s.object_vertices, s.k),
}

#: The methods of each metric, in report order (the default of :func:`compare`).
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


def compare(
    scenario: Scenario,
    methods: Optional[Sequence[str]] = None,
    check_correctness: bool = False,
) -> Dict[str, SimulationRun]:
    """Run ``methods`` (default: every method of the scenario's metric).

    Args:
        scenario: the workload.
        methods: report names from the scenario's metric.
        check_correctness: cross-check every answer against the brute-force
            oracle (slower; the integration tests always enable it).

    Returns:
        One run per method, keyed by report name, in the order asked for.

    Raises:
        ValueError: a name is not a method of the scenario's metric.
    """
    road = isinstance(scenario, RoadScenario)
    known = ROAD_METHODS if road else EUCLIDEAN_METHODS
    methods = known if methods is None else methods
    for name in methods:
        if name not in known:
            raise ValueError(f"unknown {'road-network' if road else 'Euclidean'} method {name!r}")
    oracle = None
    if check_correctness:
        oracle = road_oracle(scenario) if road else euclidean_oracle(scenario.points)
    return {
        name: simulate(METHODS[name](scenario), scenario.trajectory, oracle=oracle)
        for name in methods
    }
