"""The paper's primary contribution: INS-based moving kNN query processing.

* :mod:`repro.core.objects` — result and action types shared by every
  processor.
* :mod:`repro.core.stats` — cost accounting (recomputations, communication,
  distance computations, timing).
* :mod:`repro.core.influential` — influential set (IS), minimal influential
  set (MIS) and influential neighbour set (INS) computations and checks.
* :mod:`repro.core.processor` — the abstract moving-kNN processor interface
  and the pending-delta mailbox every served processor shares.
* :mod:`repro.core.ins` — the INS protocol (Section III), written once: a
  metric plugs in its index, one retrieval, the held distances and a tie rule.
* :mod:`repro.core.ins_euclidean` / :mod:`repro.core.ins_road` — what the
  plane (VoR-tree, ``math.dist``, strict ``<``) and a road network (network
  Voronoi diagram, one Theorem 2 search, ``<=``) plug in.
* :mod:`repro.core.engine` — the generic serving engine (query lifecycle,
  the mutation API, epoch counter, delta-scoped
  invalidation dispatch, accounting, aggregate stats).
* :mod:`repro.core.server` / :mod:`repro.core.road_server` — the thin
  metric-specific servers: the shared index, its repair hooks, and what a
  move means on that metric.
"""

from repro.core.objects import QueryResult, UpdateAction
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.core.influential import (
    influential_neighbor_set,
    is_closer_set,
    minimal_influential_set,
    verify_influential_set,
)
from repro.core.processor import MovingKNNProcessor
from repro.core.ins_euclidean import INSProcessor
from repro.core.ins_road import INSRoadProcessor
from repro.core.engine import ServingEngine
from repro.core.server import MovingKNNServer
from repro.core.road_server import MovingRoadKNNServer

__all__ = [
    "ServingEngine",
    "MovingKNNServer",
    "MovingRoadKNNServer",
    "QueryResult",
    "UpdateAction",
    "ProcessorStats",
    "CommunicationStats",
    "influential_neighbor_set",
    "minimal_influential_set",
    "is_closer_set",
    "verify_influential_set",
    "MovingKNNProcessor",
    "INSProcessor",
    "INSRoadProcessor",
]
