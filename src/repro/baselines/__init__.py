"""Baseline moving-kNN methods the paper's approach is compared against.

* :mod:`repro.baselines.policies` — two policies, each written once over a
  plane search (the live VoR-tree's retrieval) and a road search (INE over
  the live network Voronoi diagram's objects):

  * naive recomputation (:class:`NaiveProcessor`,
    :class:`NaiveRoadProcessor`) — the obvious lower bound on answer quality
    and upper bound on work: recompute the kNN set at every timestamp;
  * a V*-Diagram-style known region [5] (:class:`VStarProcessor`,
    :class:`VStarRoadProcessor`) — retrieve ``k + x`` candidates and guard
    them with a known-region safe distance.  Cheap construction but more
    frequent recomputation and per-timestamp client work.

  :func:`baseline_kinds` serves them as query kinds on a server's own
  index, registered only by the callers that run them.  The third method
  the evaluation compares, the exact order-k cell safe region of the
  earlier studies [2], [6], is the shipped ``"region"`` kind
  (:class:`repro.queries.region.OrderKRegionProcessor`);
  :data:`METHOD_KINDS` names the kind of each compared method.
"""

from repro.baselines.policies import (
    METHOD_KINDS,
    BaselineKind,
    NaiveProcessor,
    NaiveRoadProcessor,
    VStarProcessor,
    VStarRoadProcessor,
    baseline_kinds,
)

__all__ = [
    "METHOD_KINDS",
    "BaselineKind",
    "NaiveProcessor",
    "VStarProcessor",
    "NaiveRoadProcessor",
    "VStarRoadProcessor",
    "baseline_kinds",
]
