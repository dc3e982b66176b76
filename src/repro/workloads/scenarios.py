"""Named, reproducible workload scenarios.

A :class:`Scenario` describes one run — the data objects, the moving queries
and their trajectories, and the object updates between their steps — so that
examples, integration tests and benchmarks all exercise the exact same
workloads, on the plane or on a road network alike.  The factories below
build the named ones: a single-query scenario (the shape the E-series
experiments use) is one trajectory, one ``k`` and :data:`NO_CHURN`; a server
scenario is M concurrent queries over one shared index, interleaved with a
mixed object-update stream whose churn a :class:`ChurnSpec` describes and
which :func:`update_stream` computes from the scenario alone (the shape
:func:`repro.simulation.server_sim.simulate_server` drives).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.generators import grid_network, place_objects
from repro.service.messages import UpdateBatch
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.trajectory.road import network_random_walk
from repro.workloads.datasets import (
    DEFAULT_EXTENT,
    clustered_points,
    data_space,
    uniform_points,
)


@dataclass(frozen=True)
class ChurnSpec:
    """The mixed object-update stream of a scenario.

    Every ``interval`` timestamps the update stream applies one batch of
    ``inserts`` object insertions, ``deletes`` deletions and ``moves``
    relocations (a move is a delete + reinsert elsewhere on the Euclidean
    side, a vertex relocation on the road side) as a single data epoch.

    Attributes:
        interval: timestamps between update epochs (0 disables updates).
        inserts: object insertions per epoch.
        deletes: object deletions per epoch.
        moves: object relocations per epoch.
    """

    interval: int
    inserts: int
    deletes: int
    moves: int

    def __post_init__(self):
        if self.interval < 0:
            raise ConfigurationError("churn interval must be non-negative")
        if min(self.inserts, self.deletes, self.moves) < 0:
            raise ConfigurationError("churn operation counts must be non-negative")

    @property
    def operations_per_epoch(self) -> int:
        """Total object mutations per update epoch."""
        return self.inserts + self.deletes + self.moves


#: Occasional background churn: one small mixed batch every 4 timestamps.
LOW_CHURN = ChurnSpec(interval=4, inserts=1, deletes=1, moves=1)
#: Heavy traffic: a larger mixed batch on every single timestamp.
HIGH_CHURN = ChurnSpec(interval=1, inserts=2, deletes=2, moves=4)
#: A static data set (no update stream at all).
NO_CHURN = ChurnSpec(interval=0, inserts=0, deletes=0, moves=0)

_CHURN_PROFILES = {"low": LOW_CHURN, "high": HIGH_CHURN, "none": NO_CHURN}


def _resolve_churn(churn: Union[str, ChurnSpec]) -> ChurnSpec:
    if isinstance(churn, ChurnSpec):
        return churn
    if churn not in _CHURN_PROFILES:
        raise ConfigurationError(
            f"churn must be a ChurnSpec or one of {sorted(_CHURN_PROFILES)}, got {churn!r}"
        )
    return _CHURN_PROFILES[churn]


@dataclass(frozen=True)
class Scenario:
    """One run: a data set, its moving queries and the updates between steps.

    Attributes:
        name: scenario identifier used in reports.
        metric: ``"euclidean"`` or ``"road"``.
        objects: the initial data objects — :class:`~repro.geometry.point.
            Point` positions on the plane, vertex ids on a road network.
        network: the road network shared by every query (``None`` on the
            plane).
        trajectories: one trajectory per query; position 0 is where the
            query opens.
        ks: per-query ``k`` (same length as ``trajectories``).
        rho: INS prefetch ratio shared by every query.
        step_length: distance between consecutive trajectory positions.
        churn: the mixed object-update stream (:data:`NO_CHURN` keeps the
            data set static).
        extent: side length of the plane's data space (inserted and moved
            objects are drawn uniformly from it).
        seed: base seed of the update stream.
    """

    name: str
    metric: str
    objects: List[Any]
    network: Optional[RoadNetwork]
    trajectories: List[List[Any]]
    ks: List[int]
    rho: float
    step_length: float
    churn: ChurnSpec = NO_CHURN
    extent: float = DEFAULT_EXTENT
    seed: int = 0

    def __post_init__(self):
        if (self.metric, self.network is None) not in (("euclidean", True), ("road", False)):
            raise ConfigurationError(
                "a scenario is 'euclidean' without a road network or 'road' with one, "
                f"got {self.metric!r} with network={self.network!r}"
            )
        if not self.trajectories or len(self.trajectories) != len(self.ks):
            raise ConfigurationError("every query needs one trajectory and one k")
        if min(self.ks) < 1:
            raise ConfigurationError(f"every k must be at least 1, got {self.ks}")
        if len(self.objects) <= max(self.ks):
            raise ConfigurationError("the data objects must outnumber the largest k")

    @property
    def query_count(self) -> int:
        """Number of concurrent queries."""
        return len(self.trajectories)

    @property
    def timestamps(self) -> int:
        """Number of timestamps every query stream is advanced through."""
        return min(len(trajectory) for trajectory in self.trajectories)


def default_euclidean_scenario(
    object_count: int = 2_000,
    k: int = 5,
    rho: float = 1.6,
    steps: int = 300,
    step_length: float = 40.0,
    extent: float = DEFAULT_EXTENT,
    seed: int = 17,
) -> Scenario:
    """A uniform-data random-waypoint scenario (the E-series default).

    The defaults are sized so the full scenario (index construction included)
    runs in a few seconds on a laptop while still producing hundreds of
    validation events and a meaningful number of kNN changes.
    """
    points = uniform_points(object_count, extent=extent, seed=seed)
    trajectory = random_waypoint_trajectory(
        data_space(extent), steps=steps, step_length=step_length, seed=seed + 1
    )
    return Scenario(
        name=f"uniform-n{object_count}-k{k}",
        metric="euclidean",
        objects=points,
        network=None,
        trajectories=[trajectory],
        ks=[k],
        rho=rho,
        step_length=step_length,
        extent=extent,
        seed=seed,
    )


def fig4_scenario(seed: int = 23) -> Scenario:
    """The Figure 4 demonstration scenario: k = 5, ρ = 1.6, small data set.

    Figure 4 of the paper shows a 2D Plane demo with k = 5 and ρ = 1.6 where
    the query starts inside the order-k cell of its kNN set (valid) and then
    moves out of it (invalid).  This scenario reproduces that setting with a
    data set small enough to visualise.
    """
    points = uniform_points(120, extent=1_000.0, seed=seed)
    trajectory = random_waypoint_trajectory(
        BoundingBox(100.0, 100.0, 900.0, 900.0), steps=200, step_length=12.0, seed=seed + 1
    )
    return Scenario(
        name="fig4-plane-k5-rho1.6",
        metric="euclidean",
        objects=points,
        network=None,
        trajectories=[trajectory],
        ks=[5],
        rho=1.6,
        step_length=12.0,
        extent=1_000.0,
        seed=seed,
    )


def default_road_scenario(
    rows: int = 12,
    columns: int = 12,
    object_count: int = 40,
    k: int = 5,
    rho: float = 1.6,
    steps: int = 200,
    step_length: float = 25.0,
    seed: int = 29,
) -> Scenario:
    """A grid-network random-walk scenario (the road-network default).

    Matches the Figure 3 setting in spirit: a road network, k = 5, a query
    walking along the roads while the kNN set and INS are maintained.
    """
    network = grid_network(rows, columns, spacing=100.0)
    object_vertices = place_objects(network, object_count, seed=seed)
    trajectory = network_random_walk(
        network, steps=steps, step_length=step_length, seed=seed + 1
    )
    return Scenario(
        name=f"grid{rows}x{columns}-n{object_count}-k{k}",
        metric="road",
        objects=object_vertices,
        network=network,
        trajectories=[trajectory],
        ks=[k],
        rho=rho,
        step_length=step_length,
        seed=seed,
    )


def euclidean_server_scenario(
    data: str = "uniform",
    churn: Union[str, ChurnSpec] = "low",
    queries: int = 8,
    object_count: int = 600,
    k: int = 4,
    steps: int = 40,
    step_length: float = 60.0,
    rho: float = 1.6,
    extent: float = DEFAULT_EXTENT,
    seed: int = 47,
) -> Scenario:
    """A multi-query Euclidean server workload.

    Args:
        data: ``"uniform"`` or ``"clustered"`` (the Gaussian-mixture skew of
            real POI data — dense downtown clusters, sparse outskirts).
        churn: ``"low"``, ``"high"``, ``"none"`` or an explicit
            :class:`ChurnSpec`.
        queries: number of concurrent query streams (k varies slightly
            across them so the per-query client states differ).
        object_count, k, steps, step_length, rho, extent, seed: as in
            :func:`default_euclidean_scenario`.
    """
    if data not in ("uniform", "clustered"):
        raise ConfigurationError(f"data must be 'uniform' or 'clustered', got {data!r}")
    if data == "clustered":
        points = clustered_points(object_count, extent=extent, seed=seed)
    else:
        points = uniform_points(object_count, extent=extent, seed=seed)
    trajectories = [
        random_waypoint_trajectory(
            data_space(extent), steps=steps, step_length=step_length, seed=seed + 100 + i
        )
        for i in range(queries)
    ]
    spec = _resolve_churn(churn)
    churn_tag = churn if isinstance(churn, str) else "custom"
    return Scenario(
        name=f"server-{data}-{churn_tag}-m{queries}-n{object_count}-k{k}",
        metric="euclidean",
        objects=points,
        network=None,
        trajectories=trajectories,
        ks=[k + (i % 3) for i in range(queries)],
        rho=rho,
        step_length=step_length,
        churn=spec,
        extent=extent,
        seed=seed,
    )


def road_server_scenario(
    churn: Union[str, ChurnSpec] = "low",
    queries: int = 4,
    rows: int = 10,
    columns: int = 10,
    object_count: int = 30,
    k: int = 3,
    steps: int = 40,
    step_length: float = 40.0,
    spacing: float = 100.0,
    rho: float = 1.6,
    seed: int = 53,
) -> Scenario:
    """A multi-query road-network server workload on a grid network."""
    network = grid_network(rows, columns, spacing=spacing)
    object_vertices = place_objects(network, object_count, seed=seed)
    trajectories = [
        network_random_walk(
            network, steps=steps, step_length=step_length, seed=seed + 100 + i
        )
        for i in range(queries)
    ]
    spec = _resolve_churn(churn)
    churn_tag = churn if isinstance(churn, str) else "custom"
    return Scenario(
        name=f"server-grid{rows}x{columns}-{churn_tag}-m{queries}-n{object_count}-k{k}",
        metric="road",
        objects=object_vertices,
        network=network,
        trajectories=trajectories,
        ks=[k + (i % 2) for i in range(queries)],
        rho=rho,
        step_length=step_length,
        churn=spec,
        seed=seed,
    )


def update_stream(
    scenario: Scenario,
) -> List[Optional[Tuple[UpdateBatch, Tuple[int, ...]]]]:
    """A scenario's object-update stream, from the scenario alone.

    One entry per timestamp: ``None`` where the churn interval skips it
    (timestamp 0, registration, always) or the drawn batch is empty, else
    ``(batch, new_indexes)`` — the batch that timestamp applies as one data
    epoch and the object indexes an engine assigns to its new objects, in
    order.  No engine is consulted: index assignment is modelled (ascending
    from the initial population, never reused; a plane move is delete +
    reinsert under a new index, a road move keeps its index), so every
    front door replays the identical stream and a driver can check each
    ``apply`` against ``new_indexes``.

    The draw order is one ``random.Random(seed + 977)``: delete victims,
    move victims, then positions — inserts before move destinations on the
    plane, move destinations before inserts on roads.  Deletions stop at
    the population floor, ``max(scenario.ks) + 2``.
    """
    churn = scenario.churn
    road = scenario.metric == "road"
    if road:
        vertices = scenario.network.vertices()
    active = list(range(len(scenario.objects)))
    next_index = len(active)
    floor = max(scenario.ks) + 2
    rng = random.Random(scenario.seed + 977)
    stream: List[Optional[Tuple[UpdateBatch, Tuple[int, ...]]]]
    stream = [None] * scenario.timestamps
    if not churn.interval:
        return stream
    for step in range(churn.interval, scenario.timestamps, churn.interval):
        deletes = rng.sample(active, min(churn.deletes, max(0, len(active) - floor)))
        gone = set(deletes)
        remaining = [index for index in active if index not in gone]
        victims = rng.sample(remaining, min(churn.moves, len(remaining)))
        if road:
            moves = [(index, rng.choice(vertices)) for index in victims]
            inserts = [rng.choice(vertices) for _ in range(churn.inserts)]
            created = len(inserts)
        else:
            fresh = [
                Point(rng.uniform(0.0, scenario.extent), rng.uniform(0.0, scenario.extent))
                for _ in range(churn.inserts + len(victims))
            ]
            inserts = fresh[: churn.inserts]
            moves = list(zip(victims, fresh[churn.inserts :]))
            gone.update(victims)
            created = len(fresh)
        batch = UpdateBatch(inserts=inserts, deletes=deletes, moves=moves)
        if batch.is_empty:
            continue
        new_indexes = tuple(range(next_index, next_index + created))
        next_index += created
        active = [index for index in active if index not in gone] + list(new_indexes)
        stream[step] = (batch, new_indexes)
    return stream
