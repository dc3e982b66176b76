"""The continuous query-kind registry.

A :class:`QueryKind` is a strategy object that owns everything one
continuous query type needs to be served end-to-end: how to build its
processor on a server (delta-invalidation rule included — the processor
carries its own ``notify_data_update``/``invalidate`` hooks), which widened
result/response types it answers with, and a brute-force oracle the
equivalence suites check every transport against.

The registry maps kind names to singleton strategies.  ``"knn"`` is
registered here too so the engine's original query type is just the first
entry rather than a special case; ``register_query_kind`` is the seam
future kinds (isochrones, catchments, range monitors) plug into.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Type

from repro.errors import ConfigurationError
from repro.core.objects import QueryResult, UpdateAction
from repro.geometry.order_k import knn_indexes
from repro.geometry.point import Point
from repro.core.influential import influential_neighbor_set_from_points
from repro.core.ins_euclidean import INSProcessor
from repro.queries.influential import InfluentialResult, InfluentialSitesProcessor
from repro.queries.region import OrderKRegionProcessor, RegionResult
from repro.queries.messages import InfluentialResponse, RegionEvent
from repro.service.messages import KNNResponse

if TYPE_CHECKING:
    from repro.core.processor import MovingKNNProcessor
    from repro.core.server import MovingKNNServer

__all__ = [
    "InfluentialSitesKind",
    "KNNKind",
    "OrderKRegionKind",
    "QueryKind",
    "query_kind",
    "query_kinds",
    "register_query_kind",
]


class QueryKind(abc.ABC):
    """Strategy object for one continuous query kind.

    Attributes:
        name: the registry key, also the ``kind=`` string clients pass.
        result_type: the (possibly widened) :class:`QueryResult` subclass
            this kind's processors answer with.
        response_type: the wire response frame carrying that result.
    """

    name: str = ""
    result_type: Type[QueryResult] = QueryResult
    response_type: Type[KNNResponse] = KNNResponse

    @abc.abstractmethod
    def build_processor(
        self, server: "MovingKNNServer", k: int, rho: float
    ) -> "MovingKNNProcessor[Point]":
        """Build this kind's processor against ``server``'s shared index."""

    @abc.abstractmethod
    def oracle_answer(
        self, points: Sequence[Point], position: Point, k: int
    ) -> QueryResult:
        """Brute-force reference answer over a static point snapshot.

        Timestamps, actions and validity flags are maintenance artefacts,
        not part of the answer, so the oracle reports them as zero-valued
        placeholders; equivalence tests compare the answer surface (member
        tuple, distances, and the kind's widened fields).
        """

    @staticmethod
    def _ranked_members(
        points: Sequence[Point], position: Point, k: int
    ) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        members = knn_indexes(points, position, k)
        ordered = tuple(
            sorted(members, key=lambda index: (position.distance_to(points[index]), index))
        )
        distances = tuple(position.distance_to(points[index]) for index in ordered)
        return ordered, distances


class KNNKind(QueryKind):
    """The classic continuous kNN query (the engine's original kind)."""

    name = "knn"
    result_type = QueryResult
    response_type = KNNResponse

    #: The INS processor this kind serves with (a subclass may widen it).
    processor_type = INSProcessor

    def build_processor(self, server, k, rho):
        tree = server.vortree
        return self.processor_type(
            tree.positions, k, rho=rho, vortree=tree, allow_incremental=server.allow_incremental
        )

    def oracle_answer(self, points, position, k):
        ordered, distances = self._ranked_members(points, position, k)
        return QueryResult(
            timestamp=0,
            knn=ordered,
            knn_distances=distances,
            guard_objects=frozenset(),
            action=UpdateAction.NONE,
            was_valid=False,
        )


class InfluentialSitesKind(KNNKind):
    """Continuous influential-sites monitoring (see queries.influential):
    the kNN kind's processor, its answers widened with the sites."""

    name = "influential"
    result_type = InfluentialResult
    response_type = InfluentialResponse
    processor_type = InfluentialSitesProcessor

    def oracle_answer(self, points, position, k):
        ordered, distances = self._ranked_members(points, position, k)
        sites = tuple(
            sorted(influential_neighbor_set_from_points(points, ordered))
        )
        return InfluentialResult(
            timestamp=0,
            knn=ordered,
            knn_distances=distances,
            guard_objects=frozenset(),
            action=UpdateAction.NONE,
            was_valid=False,
            sites=sites,
        )


class OrderKRegionKind(QueryKind):
    """Continuous order-k region monitoring (see queries.region)."""

    name = "region"
    result_type = RegionResult
    response_type = RegionEvent

    def build_processor(self, server, k, rho):
        return OrderKRegionProcessor(server.vortree, k, rho=rho)

    def oracle_answer(self, points, position, k):
        ordered, distances = self._ranked_members(points, position, k)
        return RegionResult(
            timestamp=0,
            knn=ordered,
            knn_distances=distances,
            guard_objects=frozenset(),
            action=UpdateAction.NONE,
            was_valid=False,
            event="enter",
            departed=(),
        )


_REGISTRY: Dict[str, QueryKind] = {}


def register_query_kind(kind: QueryKind) -> QueryKind:
    """Register a kind strategy under its name (last registration wins)."""
    if not kind.name:
        raise ConfigurationError("a QueryKind must declare a non-empty name")
    _REGISTRY[kind.name] = kind
    return kind


def query_kind(name: str) -> QueryKind:
    """Look up a registered kind by name.

    Raises:
        ConfigurationError: for unknown names, listing what is available.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown query kind {name!r}; registered kinds: {sorted(_REGISTRY)}"
        ) from None


def query_kinds() -> List[str]:
    """The registered kind names, sorted."""
    return sorted(_REGISTRY)


register_query_kind(KNNKind())
register_query_kind(InfluentialSitesKind())
register_query_kind(OrderKRegionKind())
