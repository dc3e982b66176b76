"""The continuous query-kind registry.

A :class:`QueryKind` is a name and a strategy for building one continuous
query type's processor on a server.  The processor carries the rest: its
delta-invalidation rule (its own ``notify_data_update``/``invalidate``
hooks) and the widened result it answers with;
:mod:`repro.queries.messages` maps each result type to its wire response.

The registry maps kind names to singleton strategies.  ``"knn"`` is
registered here too so the engine's original query type is just the first
entry rather than a special case; ``register_query_kind`` is the seam
future kinds (isochrones, catchments, range monitors) plug into.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, List

from repro.errors import ConfigurationError
from repro.core.ins_euclidean import INSProcessor
from repro.queries.influential import InfluentialSitesProcessor
from repro.queries.region import OrderKRegionProcessor

if TYPE_CHECKING:
    from repro.geometry.point import Point
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
    """

    name: str = ""

    @abc.abstractmethod
    def build_processor(
        self, server: "MovingKNNServer", k: int, rho: float
    ) -> "MovingKNNProcessor[Point]":
        """Build this kind's processor against ``server``'s shared index."""


class KNNKind(QueryKind):
    """The classic continuous kNN query (the engine's original kind)."""

    name = "knn"

    #: The INS processor this kind serves with (a subclass may widen it).
    processor_type = INSProcessor

    def build_processor(self, server, k, rho):
        tree = server.vortree
        return self.processor_type(
            tree.positions, k, rho=rho, vortree=tree, allow_incremental=server.allow_incremental
        )


class InfluentialSitesKind(KNNKind):
    """Continuous influential-sites monitoring (see queries.influential):
    the kNN kind's processor, its answers widened with the sites."""

    name = "influential"
    processor_type = InfluentialSitesProcessor


class OrderKRegionKind(QueryKind):
    """Continuous order-k region monitoring (see queries.region)."""

    name = "region"

    def build_processor(self, server, k, rho):
        return OrderKRegionProcessor(server.vortree, k)


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
