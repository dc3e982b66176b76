"""Named, reproducible workload scenarios.

A scenario bundles everything a simulation run needs — the data objects, the
query trajectory and the query parameters — so that examples, integration
tests and benchmarks all exercise the exact same workloads.

Two families are provided:

* *single-query* scenarios (:class:`EuclideanScenario`,
  :class:`RoadScenario`) — one processor, one trajectory; the shape the
  E-series experiments use;
* *server* scenarios (:class:`EuclideanServerScenario`,
  :class:`RoadServerScenario`) — M concurrent query streams over one shared
  index, interleaved with a mixed object-update stream whose churn is
  described by a :class:`ChurnSpec` and which :func:`update_stream` computes
  from the scenario alone; the shape the multi-query serving engine is
  exercised with (see :func:`repro.simulation.server_sim.simulate_server`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.location import NetworkLocation
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
class EuclideanScenario:
    """A complete 2-D plane workload.

    Attributes:
        name: scenario identifier used in reports.
        points: data-object positions.
        trajectory: query positions, one per timestamp.
        k: number of nearest neighbours to maintain.
        rho: INS prefetch ratio to use for this scenario.
        step_length: distance between consecutive trajectory positions.
    """

    name: str
    points: List[Point]
    trajectory: List[Point]
    k: int
    rho: float
    step_length: float

    @property
    def metric(self) -> str:
        """The distance metric this scenario lives in (``"euclidean"``)."""
        return "euclidean"

    @property
    def timestamps(self) -> int:
        """Number of query timestamps (trajectory length)."""
        return len(self.trajectory)


@dataclass(frozen=True)
class RoadScenario:
    """A complete road-network workload.

    Attributes:
        name: scenario identifier used in reports.
        network: the road network.
        object_vertices: vertex of each data object.
        trajectory: query locations, one per timestamp.
        k: number of nearest neighbours to maintain.
        rho: INS prefetch ratio to use for this scenario.
        step_length: network distance between consecutive locations.
    """

    name: str
    network: RoadNetwork
    object_vertices: List[int]
    trajectory: List[NetworkLocation]
    k: int
    rho: float
    step_length: float

    @property
    def metric(self) -> str:
        """The distance metric this scenario lives in (``"road"``)."""
        return "road"

    @property
    def timestamps(self) -> int:
        """Number of query timestamps (trajectory length)."""
        return len(self.trajectory)


def default_euclidean_scenario(
    object_count: int = 2_000,
    k: int = 5,
    rho: float = 1.6,
    steps: int = 300,
    step_length: float = 40.0,
    extent: float = DEFAULT_EXTENT,
    seed: int = 17,
) -> EuclideanScenario:
    """A uniform-data random-waypoint scenario (the E-series default).

    The defaults are sized so the full scenario (index construction included)
    runs in a few seconds on a laptop while still producing hundreds of
    validation events and a meaningful number of kNN changes.
    """
    if object_count <= k:
        raise ConfigurationError("object_count must exceed k")
    points = uniform_points(object_count, extent=extent, seed=seed)
    trajectory = random_waypoint_trajectory(
        data_space(extent), steps=steps, step_length=step_length, seed=seed + 1
    )
    return EuclideanScenario(
        name=f"uniform-n{object_count}-k{k}",
        points=points,
        trajectory=trajectory,
        k=k,
        rho=rho,
        step_length=step_length,
    )


def fig4_scenario(seed: int = 23) -> EuclideanScenario:
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
    return EuclideanScenario(
        name="fig4-plane-k5-rho1.6",
        points=points,
        trajectory=trajectory,
        k=5,
        rho=1.6,
        step_length=12.0,
    )


# ----------------------------------------------------------------------
# Server scenarios: M concurrent queries + a mixed object-update stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnSpec:
    """The mixed object-update stream of a server scenario.

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
class EuclideanServerScenario:
    """A complete multi-query 2-D plane server workload.

    Attributes:
        name: scenario identifier used in reports.
        points: initial data-object positions.
        trajectories: one query trajectory per concurrent query (all the
            same length; position 0 is the registration position).
        ks: per-query ``k`` (same length as ``trajectories``).
        rho: INS prefetch ratio shared by every query.
        churn: the mixed object-update stream.
        extent: side length of the data space (newly inserted and moved
            objects are drawn uniformly from it).
        seed: base seed of the update stream.
    """

    name: str
    points: List[Point]
    trajectories: List[List[Point]]
    ks: List[int]
    rho: float
    churn: ChurnSpec
    extent: float
    seed: int

    @property
    def metric(self) -> str:
        """The distance metric this scenario lives in (``"euclidean"``)."""
        return "euclidean"

    @property
    def query_count(self) -> int:
        """Number of concurrent queries."""
        return len(self.trajectories)

    @property
    def timestamps(self) -> int:
        """Number of timestamps every query stream is advanced through."""
        return min(len(trajectory) for trajectory in self.trajectories)


@dataclass(frozen=True)
class RoadServerScenario:
    """A complete multi-query road-network server workload.

    Attributes:
        name: scenario identifier used in reports.
        network: the road network shared by every query.
        object_vertices: initial vertex of each data object.
        trajectories: one query trajectory per concurrent query.
        ks: per-query ``k`` (same length as ``trajectories``).
        rho: INS prefetch ratio shared by every query.
        churn: the mixed object-update stream (inserted and moved objects
            land on uniformly drawn network vertices).
        seed: base seed of the update stream.
    """

    name: str
    network: RoadNetwork
    object_vertices: List[int]
    trajectories: List[List[NetworkLocation]]
    ks: List[int]
    rho: float
    churn: ChurnSpec
    seed: int

    @property
    def metric(self) -> str:
        """The distance metric this scenario lives in (``"road"``)."""
        return "road"

    @property
    def query_count(self) -> int:
        """Number of concurrent queries."""
        return len(self.trajectories)

    @property
    def timestamps(self) -> int:
        """Number of timestamps every query stream is advanced through."""
        return min(len(trajectory) for trajectory in self.trajectories)


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
) -> EuclideanServerScenario:
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
    if queries < 1:
        raise ConfigurationError("queries must be at least 1")
    if object_count <= k + 2:
        raise ConfigurationError("object_count must comfortably exceed k")
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
    ks = [k + (i % 3) for i in range(queries)]
    spec = _resolve_churn(churn)
    churn_tag = churn if isinstance(churn, str) else "custom"
    return EuclideanServerScenario(
        name=f"server-{data}-{churn_tag}-m{queries}-n{object_count}-k{k}",
        points=points,
        trajectories=trajectories,
        ks=ks,
        rho=rho,
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
) -> RoadServerScenario:
    """A multi-query road-network server workload on a grid network."""
    if queries < 1:
        raise ConfigurationError("queries must be at least 1")
    if object_count <= k + 2:
        raise ConfigurationError("object_count must comfortably exceed k")
    network = grid_network(rows, columns, spacing=spacing)
    object_vertices = place_objects(network, object_count, seed=seed)
    trajectories = [
        network_random_walk(
            network, steps=steps, step_length=step_length, seed=seed + 100 + i
        )
        for i in range(queries)
    ]
    ks = [k + (i % 2) for i in range(queries)]
    spec = _resolve_churn(churn)
    churn_tag = churn if isinstance(churn, str) else "custom"
    return RoadServerScenario(
        name=f"server-grid{rows}x{columns}-{churn_tag}-m{queries}-n{object_count}-k{k}",
        network=network,
        object_vertices=object_vertices,
        trajectories=trajectories,
        ks=ks,
        rho=rho,
        churn=spec,
        seed=seed,
    )


def update_stream(
    scenario: Union[EuclideanServerScenario, RoadServerScenario],
) -> List[Optional[Tuple[UpdateBatch, Tuple[int, ...]]]]:
    """A server scenario's object-update stream, from the scenario alone.

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
        active = list(range(len(scenario.object_vertices)))
    else:
        active = list(range(len(scenario.points)))
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


def default_road_scenario(
    rows: int = 12,
    columns: int = 12,
    object_count: int = 40,
    k: int = 5,
    rho: float = 1.6,
    steps: int = 200,
    step_length: float = 25.0,
    seed: int = 29,
) -> RoadScenario:
    """A grid-network random-walk scenario (the road-network default).

    Matches the Figure 3 setting in spirit: a road network, k = 5, a query
    walking along the roads while the kNN set and INS are maintained.
    """
    if object_count <= k:
        raise ConfigurationError("object_count must exceed k")
    network = grid_network(rows, columns, spacing=100.0)
    object_vertices = place_objects(network, object_count, seed=seed)
    trajectory = network_random_walk(
        network, steps=steps, step_length=step_length, seed=seed + 1
    )
    return RoadScenario(
        name=f"grid{rows}x{columns}-n{object_count}-k{k}",
        network=network,
        object_vertices=object_vertices,
        trajectory=trajectory,
        k=k,
        rho=rho,
        step_length=step_length,
    )
