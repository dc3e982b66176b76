"""INSQ reproduction: influential neighbor set based moving kNN queries.

This package reproduces the system described in

    Li, Gu, Qi, Yu, Zhang, Deng —
    "INSQ: An Influential Neighbor Set Based Moving kNN Query Processing
    System", ICDE 2016 (demonstration).

The front door is the metric-agnostic service layer (:mod:`repro.service`):
:func:`~repro.service.service.open_service` hides which serving engine
backs a workload, :class:`~repro.service.session.Session` handles replace
raw query ids, and every exchange is accounted into
:class:`~repro.core.stats.CommunicationStats` — the paper's headline
metric (messages and objects over the wire) as a first-class quantity.

Quickstart (2-D plane; swap ``metric="road"`` plus a network for roads)::

    from repro import open_service, uniform_points, random_waypoint_trajectory
    from repro.workloads.datasets import data_space

    service = open_service(metric="euclidean", objects=uniform_points(1000, seed=1))
    trajectory = random_waypoint_trajectory(data_space(), steps=100, step_length=50.0)
    with service.open_session(trajectory[0], k=5, rho=1.6) as session:
        for position in trajectory[1:]:
            response = session.update(position)
        print(response.knn, "after", session.communication.messages, "messages")

Loaded by ``import repro`` — everything a service reaches while it opens,
serves and closes, on both metrics and for every query kind: the INS
processors (:class:`~repro.core.ins_euclidean.INSProcessor`,
:class:`~repro.core.ins_road.INSRoadProcessor`), the raw servers
(:class:`~repro.core.server.MovingKNNServer`,
:class:`~repro.core.road_server.MovingRoadKNNServer`), the query kinds
(:mod:`repro.queries`), the substrates they are built on
(:mod:`repro.geometry`, :mod:`repro.index`, :mod:`repro.roadnet`) and
observability (:mod:`repro.obs`: metrics registry, span tracer, clock seam).

Loaded on first use of one of their names (PEP 562: a name re-exported
here resolves when first read, then stays bound), so a process that only
serves in-process never imports the socket, WAL or HTTP code:

* the baselines (:mod:`repro.baselines`; their query kinds are registered
  only by the callers that run them),
* the wire layer (:mod:`repro.transport`):
  :class:`~repro.transport.server.KNNServer` hosts a service behind a
  TCP/Unix socket and :func:`~repro.transport.client.connect` opens remote
  sessions,
* crash durability (:mod:`repro.durability`): a write-ahead log plus
  snapshots behind :class:`~repro.durability.recovery.DurableKNNService`,
  and :func:`~repro.durability.recovery.recover_service`,
* workload generators, trajectories and the simulation harness
  (:mod:`repro.workloads`, :mod:`repro.trajectory`, :mod:`repro.simulation`),
  and the Prometheus ``/metrics`` endpoint (:mod:`repro.obs.httpd`).
"""

import importlib

from repro.core import (
    CommunicationStats,
    INSProcessor,
    INSRoadProcessor,
    MovingKNNProcessor,
    MovingKNNServer,
    MovingRoadKNNServer,
    ProcessorStats,
    QueryResult,
    ServingEngine,
    UpdateAction,
    influential_neighbor_set,
    minimal_influential_set,
)
from repro.queries import (
    InfluentialResponse,
    InfluentialResult,
    InfluentialSitesProcessor,
    OpenQuery,
    OrderKRegionProcessor,
    QueryKind,
    RegionEvent,
    RegionResult,
    query_kind,
    query_kinds,
    register_query_kind,
)
from repro.service import (
    KNNResponse,
    KNNService,
    PositionUpdate,
    Session,
    UpdateBatch,
    open_service,
)
from repro.geometry import Point, order_k_cell
from repro.index import VoRTree
from repro.roadnet import (
    NetworkLocation,
    NetworkVoronoiDiagram,
    RoadNetwork,
    grid_network,
    network_knn,
    place_objects,
    random_planar_network,
    ring_radial_network,
)
from repro import obs

__version__ = "1.0.0"

#: The re-exports loaded on first use: home module -> names.
_DEFERRED = {
    "repro.baselines": "NaiveProcessor NaiveRoadProcessor VStarProcessor VStarRoadProcessor",
    "repro.durability": "DurableKNNService has_durable_state open_durable_service recover_service",
    "repro.simulation": "run_methods simulate_server",
    "repro.transport": "KNNServer RemoteService RemoteSession TransportError connect",
    "repro.trajectory": "circular_trajectory linear_trajectory network_random_walk "
    "random_waypoint_trajectory",
    "repro.workloads": "ChurnSpec clustered_points default_euclidean_scenario "
    "default_road_scenario euclidean_server_scenario fig4_scenario road_server_scenario "
    "uniform_points",
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names.split()}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_HOME[name]), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "__version__",
    # the service front door
    "open_service",
    "KNNService",
    "Session",
    "PositionUpdate",
    "KNNResponse",
    "UpdateBatch",
    "CommunicationStats",
    # the transport layer (serving over a socket)
    "connect",
    "KNNServer",
    "RemoteService",
    "RemoteSession",
    "TransportError",
    # durability (crash recovery)
    "DurableKNNService",
    "open_durable_service",
    "recover_service",
    "has_durable_state",
    # observability
    "obs",
    # core
    "INSProcessor",
    "INSRoadProcessor",
    "MovingKNNProcessor",
    "MovingKNNServer",
    "MovingRoadKNNServer",
    "ServingEngine",
    "ProcessorStats",
    "QueryResult",
    "UpdateAction",
    "influential_neighbor_set",
    "minimal_influential_set",
    # continuous query kinds (repro.queries)
    "QueryKind",
    "query_kind",
    "query_kinds",
    "register_query_kind",
    "InfluentialResult",
    "InfluentialResponse",
    "InfluentialSitesProcessor",
    "OrderKRegionProcessor",
    "RegionResult",
    "RegionEvent",
    "OpenQuery",
    # baselines
    "NaiveProcessor",
    "NaiveRoadProcessor",
    "VStarProcessor",
    "VStarRoadProcessor",
    # geometry / index
    "Point",
    "order_k_cell",
    "VoRTree",
    # road networks
    "RoadNetwork",
    "NetworkLocation",
    "NetworkVoronoiDiagram",
    "network_knn",
    "grid_network",
    "ring_radial_network",
    "random_planar_network",
    "place_objects",
    # simulation / workloads / trajectories
    "run_methods",
    "simulate_server",
    "uniform_points",
    "clustered_points",
    "ChurnSpec",
    "default_euclidean_scenario",
    "default_road_scenario",
    "euclidean_server_scenario",
    "road_server_scenario",
    "fig4_scenario",
    "linear_trajectory",
    "circular_trajectory",
    "random_waypoint_trajectory",
    "network_random_walk",
]
