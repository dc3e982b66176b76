"""The paper's methods compared on one workload, every answer checked.

``compare(scenario)`` opens one serving engine over the scenario's data,
serves every method of its metric as one query on it (the baselines'
kinds registered for the run only) and adds a ``correct`` column to each
row: every answer passed the tie-aware check against brute force over the
scenario's own objects, never read from the engine.
"""

import math

from repro.baselines import METHOD_KINDS, baseline_kinds
from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.queries.kinds import registered
from repro.roadnet.shortest_path import distances_from_location
from repro.simulation.server_sim import check_knn_answer, run_methods
from repro.workloads.scenarios import RoadScenario


def brute_force(scenario, position):
    """Every object's distance from ``position``."""
    if isinstance(scenario, RoadScenario):
        reach = distances_from_location(scenario.network, position)
        return {i: reach.get(v, math.inf) for i, v in enumerate(scenario.object_vertices)}
    return {i: position.distance_to(p) for i, p in enumerate(scenario.points)}


def engine_for(scenario):
    """A serving engine over the scenario's data, on its metric."""
    if isinstance(scenario, RoadScenario):
        return MovingRoadKNNServer(scenario.network, scenario.object_vertices)
    return MovingKNNServer(scenario.points)


def compare(scenario):
    """One row per method of the scenario's metric, in report order."""
    engine = engine_for(scenario)
    methods = {
        name: (kind, scenario.k, scenario.rho)
        for name, kind in METHOD_KINDS[engine.metric].items()
    }
    with registered(*baseline_kinds(scenario.step_length)):
        runs = run_methods(engine, scenario.trajectory, methods)
    for run in runs.values():
        run["correct"] = all(
            check_knn_answer(result.knn, brute_force(scenario, position), scenario.k)
            for position, result in zip(scenario.trajectory, run["answers"])
        )
    return runs
