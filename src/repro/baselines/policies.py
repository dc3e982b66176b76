"""The baselines: V* and naive written once over both metrics, served as
query kinds on the engine's own index.

A *policy* is the algorithm; a *metric* supplies three methods it runs on:

* ``_nearest(position, count)`` — one server retrieval: the ``count``
  nearest objects as ``(index, distance)`` pairs, nearest first;
* ``_distances(position, indexes)`` — the current distances to the listed
  objects, in order (``inf`` for an unreachable one);
* ``_drift(position)`` — an upper bound on the distance from the last
  retrieval position.

:class:`PlaneSearch` answers them with the live VoR-tree's retrieval (the
index the INS processor serves from) and ``math.dist`` over its coordinate
rows, the drift being the exact distance to the retrieval position.
:class:`RoadSearch` answers them with an INE search (``network_knn``) and
one targeted Dijkstra over the live network Voronoi diagram's object
storage; its drift is the declared ``step_length`` summed over the
timestamps since the retrieval — the distance travelled along the
trajectory, always an upper bound on the network distance and free to keep.

A processor is handed the index a server maintains and builds none.  A
data-update delta the engine pushes costs naive nothing (it retrieves from
the live index every timestamp anyway) and costs V* one retrieval: its
known region says nothing about objects inserted since.
:func:`baseline_kinds` wraps the four as query kinds (``naive``, ``vstar``,
``naive-road``, ``vstar-road``); a caller that runs them registers them for
as long as it needs them (:func:`repro.queries.kinds.registered`), so
``import repro`` serves only the shipped kinds.

**Recompute** (:class:`NaiveProcessor`, :class:`NaiveRoadProcessor`) is the
method every safe-region technique is trying to beat: one k-nearest
retrieval at every timestamp, ``k`` objects shipped each time.

**KnownRegion** (:class:`VStarProcessor`, :class:`VStarRoadProcessor`) is
the V*-Diagram of Nutanong et al. [5], the paper's "cheap construction /
frequent recomputation" competitor:

* retrieve the ``k + x`` nearest objects per round trip (``x`` auxiliary
  candidates) and remember the retrieval position ``z`` and the distance to
  the ``(k+x)``-th of them: every object not retrieved is at least that far
  from ``z`` — the *known region*;
* at every timestamp rank the candidates by their current distances (the
  client pays ``k + x`` distance evaluations — cheap construction, dearer
  validation, the trade-off the INSQ introduction describes) and report the
  top ``k``;
* the answer is guaranteed while ``d(q, c_k) <= d(z, c_{k+x}) - drift``, the
  triangle inequality's lower bound on any unretrieved object; when it
  fails, retrieve again from the current position.

One simplification against the original: the V*-Diagram also intersects
per-object fixed-rank regions and refreshes one candidate at a time, while
this one recomputes the whole candidate list when the condition fails.  The
published trade-off survives — construction far cheaper than order-k cells,
recomputation clearly more frequent than INS or order-k safe regions, and
less frequent as ``x`` grows.
"""

from __future__ import annotations

import abc
from functools import partial
from itertools import repeat
from math import dist, inf
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.core.objects import QueryResult, UpdateAction
from repro.core.processor import MovingKNNProcessor, PositionT
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.queries.kinds import QueryKind
from repro.roadnet.knn import network_knn, object_distances_from_location
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import SearchStats


class _Baseline(MovingKNNProcessor[PositionT]):
    """What a metric supplies to a policy."""

    def __init__(self, k: int):
        super().__init__(k)
        if k < 1:
            raise ConfigurationError("k must be at least 1")

    @abc.abstractmethod
    def _nearest(self, position: PositionT, count: int) -> List[Tuple[int, float]]:
        """One retrieval, its index effort counted: ``(index, distance)``
        pairs of the ``count`` nearest objects, nearest first."""

    @abc.abstractmethod
    def _distances(self, position: PositionT, indexes: Sequence[int]) -> List[float]:
        """Distances to ``indexes``, in order (``inf`` when unreachable)."""

    @abc.abstractmethod
    def _drift(self, position: PositionT) -> float:
        """Upper bound on the distance from the last retrieval position;
        called once per timestamp that keeps the retrieval."""


class Recompute(_Baseline[PositionT]):
    """Naive: one k-nearest retrieval at every timestamp."""

    def __init__(self, k: int, declared: int):
        super().__init__(k)
        if k > declared:
            raise ConfigurationError(
                f"k={k} exceeds the number of data objects ({declared})"
            )

    def _compute(self, position: PositionT) -> QueryResult:
        with self._stats.timed("construction_seconds"):
            nearest = self._nearest(position, self.k)
            self._stats.full_recomputations += 1
            self._stats.transmitted_objects += self.k
        return QueryResult(
            timestamp=self.current_timestamp,
            knn=tuple(index for index, _ in nearest),
            knn_distances=tuple(distance for _, distance in nearest),
            guard_objects=frozenset(),
            action=UpdateAction.FULL_RECOMPUTE,
            was_valid=False,
        )

    def _initialize(self, position: PositionT) -> QueryResult:
        return self._compute(position)

    def _update(self, position: PositionT) -> QueryResult:
        if self._state_stale:
            self._take_pending()  # the retrieval reads the live index anyway
        self._stats.validations += 1
        return self._compute(position)


class KnownRegion(_Baseline[PositionT]):
    """V*: ``k + x`` candidates guarded by the known region around the
    retrieval position."""

    def __init__(self, k: int, auxiliary: int, declared: int):
        super().__init__(k)
        if auxiliary < 1:
            raise ConfigurationError("auxiliary (x) must be at least 1")
        if k + auxiliary > declared:
            raise ConfigurationError(
                f"k + x = {k + auxiliary} exceeds the number of data objects ({declared})"
            )
        self._auxiliary = auxiliary
        # Client-side state: the candidates, the known radius, and what the
        # metric's drift bound starts from (the retrieval position, or the
        # distance travelled since it).
        self._candidates: List[int] = []
        self._known_radius: float = 0.0
        self._anchor: Optional[PositionT] = None
        self._moved: float = 0.0

    @property
    def auxiliary(self) -> int:
        """The number of auxiliary candidates x."""
        return self._auxiliary

    @property
    def candidates(self) -> List[int]:
        """The currently held k + x candidate object indexes."""
        return list(self._candidates)

    @property
    def known_region_radius(self) -> float:
        """Radius of the known region around the last retrieval position."""
        return self._known_radius

    def _retrieve(self, position: PositionT) -> None:
        with self._stats.timed("construction_seconds"):
            nearest = self._nearest(position, self.k + self._auxiliary)
            self._candidates = [index for index, _ in nearest]
            self._known_radius = nearest[-1][1]
            self._anchor = position
            self._moved = 0.0
            self._stats.full_recomputations += 1
            self._stats.transmitted_objects += len(self._candidates)

    def _rank(self, position: PositionT) -> List[Tuple[float, int]]:
        self._stats.distance_computations += len(self._candidates)
        return sorted(zip(self._distances(position, self._candidates), self._candidates))

    def _result(self, ranked: List[Tuple[float, int]], action: UpdateAction) -> QueryResult:
        top = ranked[: self.k]
        return QueryResult(
            timestamp=self.current_timestamp,
            knn=tuple(index for _, index in top),
            knn_distances=tuple(distance for distance, _ in top),
            guard_objects=frozenset(index for _, index in ranked[self.k :]),
            action=action,
            was_valid=action is UpdateAction.NONE,
        )

    def _initialize(self, position: PositionT) -> QueryResult:
        self._retrieve(position)
        return self._result(self._rank(position), UpdateAction.FULL_RECOMPUTE)

    def _update(self, position: PositionT) -> QueryResult:
        if self._state_stale:
            # The data changed: the known region may hold a new object.
            self._take_pending()
            self._stats.validations += 1
            return self._initialize(position)
        with self._stats.timed("validation_seconds"):
            self._stats.validations += 1
            drift = self._drift(position)
            ranked = self._rank(position)
            kth_distance = ranked[self.k - 1][0]
            safe = kth_distance < inf and kth_distance <= self._known_radius - drift
        if safe:
            return self._result(ranked, UpdateAction.NONE)
        return self._initialize(position)


class PlaneSearch:
    """The plane: the live VoR-tree and Euclidean distances."""

    def _bind(self, tree: VoRTree) -> None:
        self._tree = tree
        # The last nearest object: where the next retrieval's walk starts.
        self._hint: Optional[int] = None

    @property
    def tree(self) -> VoRTree:
        """The server-side VoR-tree."""
        return self._tree

    def _nearest(self, position: Point, count: int) -> List[Tuple[int, float]]:
        nearest, _, distances = self._tree.retrieve(position, count, self._hint)
        self._hint = nearest[0]
        return list(zip(nearest, distances))

    def _distances(self, position: Point, indexes: Sequence[int]) -> List[float]:
        rows = map(self._tree.coordinates.__getitem__, indexes)
        return list(map(dist, repeat((position.x, position.y)), rows))

    def _drift(self, position: Point) -> float:
        return position.distance_to(self._anchor)


class RoadSearch:
    """The network: the live diagram's objects, INE retrievals, network distances."""

    def _bind(self, voronoi: NetworkVoronoiDiagram) -> None:
        self._network = voronoi.network
        self._voronoi = voronoi

    def _nearest(self, position: NetworkLocation, count: int) -> List[Tuple[int, float]]:
        search = SearchStats()
        nearest = network_knn(
            self._network,
            self._voronoi.vertex_assignments,
            position,
            count,
            stats=search,
            objects_at_vertex=self._voronoi.vertex_objects(),
        )
        self._stats.settled_vertices += search.settled_vertices
        return nearest

    def _distances(self, position: NetworkLocation, indexes: Sequence[int]) -> List[float]:
        search = SearchStats()
        distances = object_distances_from_location(
            self._network, self._voronoi.vertex_assignments, position, indexes, stats=search
        )
        self._stats.settled_vertices += search.settled_vertices
        return distances

    def _drift(self, position: NetworkLocation) -> float:
        # One step per timestamp, added rather than multiplied: the bound
        # is the running total of the declared steps, float for float.
        self._moved += self._step_length
        return self._moved


class NaiveProcessor(PlaneSearch, Recompute[Point]):
    """Per-timestamp recomputation baseline (Euclidean space).

    Args:
        vortree: the live VoR-tree.
        k: number of nearest neighbours to report.
    """

    def __init__(self, vortree: VoRTree, k: int):
        super().__init__(k, len(vortree))
        self._bind(vortree)

    @property
    def name(self) -> str:
        return "Naive"


class NaiveRoadProcessor(RoadSearch, Recompute[NetworkLocation]):
    """Per-timestamp INE recomputation baseline (road networks).

    Args:
        voronoi: the live network Voronoi diagram (its network and objects).
        k: number of nearest neighbours to report.
    """

    def __init__(self, voronoi: NetworkVoronoiDiagram, k: int):
        super().__init__(k, len(voronoi))
        self._bind(voronoi)

    @property
    def name(self) -> str:
        return "Naive-road"


class VStarProcessor(PlaneSearch, KnownRegion[Point]):
    """V*-Diagram-style moving kNN processor (Euclidean space).

    Args:
        vortree: the live VoR-tree.
        k: number of nearest neighbours to report.
        auxiliary: the ``x`` extra candidates retrieved per round trip
            (the V*-Diagram paper's recommended small constant; default 4).
    """

    def __init__(self, vortree: VoRTree, k: int, auxiliary: int = 4):
        super().__init__(k, auxiliary, len(vortree))
        self._bind(vortree)

    @property
    def name(self) -> str:
        return "V*"


class VStarRoadProcessor(RoadSearch, KnownRegion[NetworkLocation]):
    """V*-style moving kNN processor on a road network.

    Args:
        voronoi: the live network Voronoi diagram (its network and objects).
        k: number of nearest neighbours to report.
        auxiliary: the ``x`` extra candidates retrieved per round trip.
        step_length: the most the query travels between consecutive
            timestamps (> 0), the per-timestamp increment of the drift
            bound.  Pass the trajectory's step length; when it varies, pass
            the maximum.  An understated step leaves the known region too
            large and the answers wrong.
    """

    def __init__(
        self,
        voronoi: NetworkVoronoiDiagram,
        k: int,
        auxiliary: int = 4,
        *,
        step_length: float,
    ):
        super().__init__(k, auxiliary, len(voronoi))
        if not step_length > 0:
            raise ConfigurationError("step_length must be positive")
        self._step_length = step_length
        self._bind(voronoi)

    @property
    def name(self) -> str:
        return "V*-road"


class BaselineKind(QueryKind):
    """A baseline served as a query kind: ``build(index, k)`` on the
    server's live index (``rho`` means nothing to a baseline)."""

    def __init__(self, name: str, metric: str, build: Callable[..., MovingKNNProcessor]):
        self.name = name
        self.metric = metric
        self._build = build

    def build_processor(self, server, k, rho):
        return self._build(server.index, k)


#: The paper's methods on each metric, in report order: report name ->
#: query kind (INS is ``knn``; the order-k safe region is ``region``).
METHOD_KINDS = {
    "euclidean": {"INS": "knn", "OrderK-SR": "region", "V*": "vstar", "Naive": "naive"},
    "road": {"INS-road": "knn", "V*-road": "vstar-road", "Naive-road": "naive-road"},
}


def baseline_kinds(step_length: float) -> Tuple[BaselineKind, ...]:
    """The four baselines as query kinds, V* with ``x = 4`` on either metric;
    ``step_length`` is the road V*'s declared step (see
    :class:`VStarRoadProcessor`).  Serve them inside
    ``with repro.queries.kinds.registered(*baseline_kinds(step)):``."""
    return (
        BaselineKind("naive", "euclidean", NaiveProcessor),
        BaselineKind("vstar", "euclidean", VStarProcessor),
        BaselineKind("naive-road", "road", NaiveRoadProcessor),
        BaselineKind("vstar-road", "road", partial(VStarRoadProcessor, step_length=step_length)),
    )
