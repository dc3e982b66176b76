"""One front door for moving-kNN serving, whatever the metric.

The packages below this one implement the machinery — VoR-trees, network
Voronoi diagrams, INS processors, the serving engine and its two
metric-specific servers.  This package is the designed *user-facing
surface* on top of them:

* :mod:`repro.service.service` — :func:`open_service` /
  :class:`KNNService`: a metric-agnostic factory and facade that hides
  which :class:`~repro.core.engine.ServingEngine` subclass answers (pass
  ``metric="euclidean"`` with points, or ``metric="road"`` with a network
  and vertices, and use the same API either way);
* :mod:`repro.service.session` — :class:`Session` handles replacing raw
  integer query ids: context-managed, carrying ``k``/``rho``, answering
  ``update(position)`` with typed responses and unregistering themselves
  on close;
* :mod:`repro.service.messages` — the typed message protocol
  (:class:`PositionUpdate`, :class:`KNNResponse`, :class:`UpdateBatch`)
  whose :meth:`payload_size` accounting makes the paper's headline metric
  — messages and objects shipped over the wire, accumulated into
  :class:`~repro.core.stats.CommunicationStats` per session and in
  aggregate — a first-class, testable quantity.

One service holds one engine: its sessions advance one after another,
in process or behind :mod:`repro.transport`'s socket server.

Everything here delegates to the engine layer — driving the same workload
through raw :class:`~repro.core.server.MovingKNNServer` /
:class:`~repro.core.road_server.MovingRoadKNNServer` calls yields identical
answers and identical communication counters (the equivalence suite in
``tests/service/`` holds the two surfaces together).
"""

from repro.core.stats import CommunicationStats
from repro.service.messages import KNNResponse, PositionUpdate, UpdateBatch
from repro.service.service import KNNService, open_service
from repro.service.session import Session

__all__ = [
    "CommunicationStats",
    "KNNResponse",
    "KNNService",
    "PositionUpdate",
    "Session",
    "UpdateBatch",
    "open_service",
]
