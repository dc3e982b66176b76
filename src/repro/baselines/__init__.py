"""Baseline moving-kNN methods the paper's approach is compared against.

* :mod:`repro.baselines.policies` — two policies, each written once over a
  plane search (the VoR-tree's retrieval) and a road search (INE), and a
  plane binding of a third:

  * naive recomputation (:class:`NaiveProcessor`,
    :class:`NaiveRoadProcessor`) — the obvious lower bound on answer quality
    and upper bound on work: recompute the kNN set at every timestamp;
  * a V*-Diagram-style known region [5] (:class:`VStarProcessor`,
    :class:`VStarRoadProcessor`) — retrieve ``k + x`` candidates and guard
    them with a known-region safe distance.  Cheap construction but more
    frequent recomputation and per-timestamp client work;
  * the safe-region approach of the earlier studies cited in the
    introduction [2], [6] (:class:`OrderKSafeRegionProcessor`) — the exact
    order-k Voronoi cell as the safe region.  Minimal recomputation
    frequency but expensive construction.  The policy is
    :class:`repro.queries.region.OrderKRegion`, the one the ``"region"``
    query kind runs on; this binding builds a VoR-tree of its own.
"""

from repro.baselines.policies import (
    NaiveProcessor,
    NaiveRoadProcessor,
    OrderKSafeRegionProcessor,
    VStarProcessor,
    VStarRoadProcessor,
)

__all__ = [
    "NaiveProcessor",
    "OrderKSafeRegionProcessor",
    "VStarProcessor",
    "NaiveRoadProcessor",
    "VStarRoadProcessor",
]
