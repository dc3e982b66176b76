"""The continuous query-kind registry.

A :class:`QueryKind` is a name and a strategy for building one continuous
query type's processor on a server.  The processor carries the rest: its
delta-invalidation rule (how it settles what ``notify_data_update``
queued) and the widened result it answers with;
:mod:`repro.queries.messages` maps each result type to its wire response.

The registry maps kind names to singleton strategies, and both metric
servers build every processor through it.  ``"knn"`` is registered here too
(on either metric) so the engine's original query type is just the first
entry rather than a special case; ``register_query_kind`` is the seam
future kinds (isochrones, catchments, range monitors) plug into, and
:func:`registered` lends a registration to one ``with`` block — how the
paper's baselines (:func:`repro.baselines.baseline_kinds`) are served
without shipping as kinds of their own.
"""

from __future__ import annotations

import abc
import contextlib
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.core.ins_euclidean import INSProcessor
from repro.core.ins_road import INSRoadProcessor
from repro.queries.influential import InfluentialSitesProcessor
from repro.queries.region import OrderKRegionProcessor

if TYPE_CHECKING:
    from repro.core.processor import MovingKNNProcessor
    from repro.core.engine import ServingEngine

__all__ = [
    "InfluentialSitesKind",
    "KNNKind",
    "OrderKRegionKind",
    "QueryKind",
    "query_kind",
    "query_kinds",
    "register_query_kind",
    "registered",
]


class QueryKind(abc.ABC):
    """Strategy object for one continuous query kind.

    Attributes:
        name: the registry key, also the ``kind=`` string clients pass.
        metric: the metric whose servers serve the kind (``"euclidean"`` or
            ``"road"``), or None for both.
    """

    name: str = ""
    metric: Optional[str] = "euclidean"

    @abc.abstractmethod
    def build_processor(
        self, server: "ServingEngine", k: int, rho: float
    ) -> "MovingKNNProcessor":
        """Build this kind's processor against ``server``'s shared index."""


class KNNKind(QueryKind):
    """The classic continuous kNN query (the engine's original kind)."""

    name = "knn"
    metric = None

    #: The plane's INS processor for this kind (a subclass may widen it).
    processor_type = INSProcessor

    def build_processor(self, server, k, rho):
        if server.metric == "road":
            return INSRoadProcessor(server.index, k, rho=rho)
        return self.processor_type(
            server.index, k, rho=rho, allow_incremental=server.allow_incremental
        )


class InfluentialSitesKind(KNNKind):
    """Continuous influential-sites monitoring (see queries.influential):
    the kNN kind's processor, its answers widened with the sites."""

    name = "influential"
    metric = "euclidean"
    processor_type = InfluentialSitesProcessor


class OrderKRegionKind(QueryKind):
    """Continuous order-k region monitoring (see queries.region)."""

    name = "region"

    def build_processor(self, server, k, rho):
        return OrderKRegionProcessor(server.index, k)


_REGISTRY: Dict[str, QueryKind] = {}


def register_query_kind(kind: QueryKind) -> QueryKind:
    """Register a kind strategy under its name (last registration wins)."""
    if not kind.name:
        raise ConfigurationError("a QueryKind must declare a non-empty name")
    _REGISTRY[kind.name] = kind
    return kind


@contextlib.contextmanager
def registered(*kinds: QueryKind) -> Iterator[None]:
    """Register ``kinds`` for one ``with`` block, then give their names back
    what they meant before (nothing, for a name that was free)."""
    previous = {kind.name: _REGISTRY.get(kind.name) for kind in kinds}
    try:
        for kind in kinds:
            register_query_kind(kind)
        yield
    finally:
        for name, kind in previous.items():
            if kind is None:
                _REGISTRY.pop(name, None)
            else:
                _REGISTRY[name] = kind


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
