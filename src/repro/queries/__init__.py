"""``repro.queries`` — the continuous-query subsystem.

Generalises the serving engine from "moving kNN only" to a registry of
:class:`~repro.queries.kinds.QueryKind` strategies, each building the
processor that answers with the kind's widened result and carries its
delta-invalidation rule.  Shipping kinds:

- ``"knn"`` — the classic paper query (INS processor);
- ``"influential"`` — continuous influential-sites monitoring: which data
  objects currently count the session among their influenced region;
- ``"region"`` — continuous order-k region monitoring: is the session still
  inside the order-k Voronoi cell of its member set, with entry/exit events.

Open them through ``service.open_query(position, kind=..., k=...)`` on any
transport; see :mod:`repro.queries.kinds` for the registration seam new
kinds (isochrones, catchments, range monitors) plug into.
"""

from repro.queries.influential import InfluentialResult, InfluentialSitesProcessor
from repro.queries.kinds import (
    InfluentialSitesKind,
    KNNKind,
    OrderKRegionKind,
    QueryKind,
    query_kind,
    query_kinds,
    register_query_kind,
)
from repro.queries.messages import (
    InfluentialResponse,
    OpenQuery,
    RegionEvent,
    response_for,
)
from repro.queries.region import OrderKRegionProcessor, RegionResult

__all__ = [
    "InfluentialResponse",
    "InfluentialResult",
    "InfluentialSitesKind",
    "InfluentialSitesProcessor",
    "KNNKind",
    "OpenQuery",
    "OrderKRegionKind",
    "OrderKRegionProcessor",
    "QueryKind",
    "RegionEvent",
    "RegionResult",
    "query_kind",
    "query_kinds",
    "register_query_kind",
    "response_for",
]
