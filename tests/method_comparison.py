"""The paper's methods compared on one workload, every answer checked.

``compare(scenario)`` opens one serving engine over the scenario's data,
serves every method of its metric as one query on it (the baselines'
kinds registered for the run only) and adds a ``correct`` column to each
row: every answer passed the tie-aware check against brute force over the
scenario's own objects, never read from the engine.
"""

import math

from repro.baselines import METHOD_KINDS, baseline_kinds
from repro.queries.kinds import registered
from repro.roadnet.shortest_path import distances_from_location
from repro.service import open_service
from repro.simulation.server_sim import check_knn_answer, run_methods


def brute_force(scenario, position):
    """Every object's distance from ``position``."""
    if scenario.metric == "road":
        reach = distances_from_location(scenario.network, position)
        return {i: reach.get(v, math.inf) for i, v in enumerate(scenario.objects)}
    return {i: position.distance_to(p) for i, p in enumerate(scenario.objects)}


def engine_for(scenario):
    """A serving engine over the scenario's data, on its metric."""
    return open_service(scenario.metric, scenario.objects, scenario.network).engine


def compare(scenario):
    """One row per method of the scenario's metric, in report order."""
    engine = engine_for(scenario)
    [trajectory], [k] = scenario.trajectories, scenario.ks
    methods = {
        name: (kind, k, scenario.rho)
        for name, kind in METHOD_KINDS[engine.metric].items()
    }
    with registered(*baseline_kinds(scenario.step_length)):
        runs = run_methods(engine, trajectory, methods)
    for run in runs.values():
        run["correct"] = all(
            check_knn_answer(result.knn, brute_force(scenario, position), k)
            for position, result in zip(trajectory, run["answers"])
        )
    return runs
