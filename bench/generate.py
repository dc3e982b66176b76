"""All benchmark inputs, from the seed alone.

The *city* — the data objects and their update stream — is fixed
(``CITY_SEED``); ``--seed`` draws the *clients*, the query trajectories.
That is the paper's own experiment shape (a fixed POI set, random movers),
and it is what keeps the time metrics comparable across seeds: with the
city drawn from the seed too, the count of hull-delete full rebuilds — a
dozen events that cost a fifth of ``euclid-stream`` — moved ``stream_s`` by
+-17 % from seed to seed on a quiet box, more than any bound allows.  At
seed 71 clients and city together are exactly the scenario
``euclidean_server_scenario(seed=71)`` builds, so the first 200 epochs of
``euclid-stream`` are the stream ``BENCH_PR5.json`` measured.

Objects and trajectories come from ``repro``'s own generators with the seeds
its scenarios use; the churn stream is generated here, mirroring
``simulate_server``'s draw order (``random.Random(seed + 977)``: delete
victims, move victims, then the new positions).  The engine is never asked
which objects are active: index assignment is modelled here (ascending, never
reused; a Euclidean move is delete + reinsert under a new index) and every
``apply`` result is checked against the model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.service import UpdateBatch
from repro.trajectory import network_random_walk, random_waypoint_trajectory
from repro.workloads.datasets import DEFAULT_EXTENT, data_space, uniform_points

from bench.workloads import GRID_SPACING, Workload

#: The seed of the data objects and of their update stream.
CITY_SEED = 71


@dataclass
class Inputs:
    """The generated inputs of one workload at one seed.

    Attributes:
        objects: initial data objects (``Point``s, or road vertex ids).
        network: the road network (``None`` on the plane).
        trajectories: per session, its position at every timestamp.
        ks: per session, its ``k``.
        batches: one ``UpdateBatch`` per epoch (empty when there is no churn).
        new_indexes: per epoch, the indexes the model expects the engine to
            assign to that batch's new objects.
    """

    objects: List[Any]
    network: Any
    trajectories: List[List[Any]]
    ks: List[int]
    batches: List[UpdateBatch]
    new_indexes: List[Tuple[int, ...]]


def generate(workload: Workload, seed: int) -> Inputs:
    """Build every input of ``workload``: the city, and ``seed``'s clients."""
    if workload.metric == "road":
        network = grid_network(*workload.grid, spacing=GRID_SPACING)
        objects = place_objects(network, workload.objects, seed=CITY_SEED)
        targets = network.vertices()

        def trajectory(client_seed: int):
            return network_random_walk(
                network, workload.epochs, workload.step, seed=client_seed
            )

    else:
        network = None
        objects = uniform_points(workload.objects, extent=DEFAULT_EXTENT, seed=CITY_SEED)
        targets = DEFAULT_EXTENT

        def trajectory(client_seed: int):
            return random_waypoint_trajectory(
                data_space(DEFAULT_EXTENT), workload.epochs, workload.step, seed=client_seed
            )

    ks = [workload.k + i % workload.k_cycle for i in range(workload.sessions)]
    batches: List[UpdateBatch] = []
    new_indexes: List[Tuple[int, ...]] = []
    if workload.churns:
        batches, new_indexes = _churn_stream(workload, targets, max(ks))
    return Inputs(
        objects=objects,
        network=network,
        trajectories=[trajectory(seed + 100 + i) for i in range(workload.sessions)],
        ks=ks,
        batches=batches,
        new_indexes=new_indexes,
    )


def _churn_stream(workload: Workload, targets: Any, max_k: int):
    road = workload.metric == "road"
    inserts_per, deletes_per, moves_per = workload.churn
    rng = random.Random(CITY_SEED + 977)
    active = list(range(workload.objects))
    next_index = workload.objects
    floor = max_k + 2  # the population the stream must leave behind
    batches, assigned = [], []
    for _ in range(workload.epochs):
        removable = max(0, len(active) - floor)
        deletes = rng.sample(active, min(deletes_per, removable))
        gone = set(deletes)
        remaining = [index for index in active if index not in gone]
        victims = rng.sample(remaining, min(moves_per, len(remaining)))
        if road:
            moves = [(index, rng.choice(targets)) for index in victims]
            inserts = [rng.choice(targets) for _ in range(inserts_per)]
            created = len(inserts)  # a road move keeps its index
        else:
            fresh = [
                Point(rng.uniform(0.0, targets), rng.uniform(0.0, targets))
                for _ in range(inserts_per + len(victims))
            ]
            inserts = fresh[:inserts_per]
            moves = list(zip(victims, fresh[inserts_per:]))
            gone.update(victims)
            created = len(fresh)
        new = tuple(range(next_index, next_index + created))
        next_index += created
        active = [index for index in active if index not in gone] + list(new)
        batches.append(UpdateBatch(inserts=inserts, deletes=deletes, moves=moves))
        assigned.append(new)
    return batches, assigned


def apply_to_model(
    model: Dict[int, Any], batch: UpdateBatch, new: Tuple[int, ...], road: bool
) -> None:
    """Advance the oracle's own ``index -> position`` map by one epoch."""
    for index in batch.deletes:
        del model[index]
    placed = list(batch.inserts)
    for index, target in batch.moves:
        if road:
            model[index] = target
        else:
            del model[index]
            placed.append(target)
    for index, target in zip(new, placed):
        model[index] = target
