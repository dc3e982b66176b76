"""Positions on a road network.

The moving query object of the paper's Road Network mode travels along
edges, so its position is not a vertex but a point *on* an edge.  A
:class:`NetworkLocation` captures that: an edge identifier plus an offset
from the edge's ``u`` endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.objects import accepts_dict_state
from repro.errors import RoadNetworkError
from repro.geometry.point import Point
from repro.roadnet.graph import RoadNetwork


@accepts_dict_state
@dataclass(frozen=True, slots=True)
class NetworkLocation:
    """A position on an edge of a road network.

    Attributes:
        edge_id: the edge the position lies on.
        offset: distance from the edge's ``u`` endpoint, in ``[0, length]``.
    """

    edge_id: int
    offset: float

    def validated(self, network: RoadNetwork) -> "NetworkLocation":
        """Return this location checked against ``network`` (itself, unless clamped).

        Raises:
            RoadNetworkError: when the edge does not exist or the offset is
                outside ``[0, length]``.
        """
        edge = network.edge(self.edge_id)
        if 0.0 <= self.offset <= edge.length:
            return self
        if self.offset < -1e-9 or self.offset > edge.length + 1e-9:
            raise RoadNetworkError(
                f"offset {self.offset} outside [0, {edge.length}] on edge {self.edge_id}"
            )
        return NetworkLocation(self.edge_id, min(max(self.offset, 0.0), edge.length))

    def endpoint_distances(self, network: RoadNetwork) -> Tuple[int, float, int, float]:
        """Distances to the two endpoints of the edge.

        Returns:
            ``(u, distance_to_u, v, distance_to_v)``.
        """
        edge = network.edge(self.edge_id)
        return edge.u, self.offset, edge.v, edge.length - self.offset

    def position(self, network: RoadNetwork) -> Point:
        """Euclidean coordinates of the location (for drawing and Euclidean
        lower bounds), interpolated along the edge's straight-line embedding."""
        edge = network.edge(self.edge_id)
        start = network.vertex_position(edge.u)
        end = network.vertex_position(edge.v)
        if edge.length == 0:
            return start
        fraction = min(max(self.offset / edge.length, 0.0), 1.0)
        return start.towards(end, fraction)

    def is_at_vertex(self, network: RoadNetwork, tolerance: float = 1e-9) -> bool:
        """True when the location coincides with one of the edge endpoints."""
        edge = network.edge(self.edge_id)
        return self.offset <= tolerance or self.offset >= edge.length - tolerance

    def nearest_vertex(self, network: RoadNetwork) -> int:
        """The endpoint of the edge closest to the location along the edge."""
        edge = network.edge(self.edge_id)
        return edge.u if self.offset <= edge.length - self.offset else edge.v

    @staticmethod
    def at_vertex(network: RoadNetwork, vertex_id: int) -> "NetworkLocation":
        """A location coinciding with ``vertex_id`` (on any incident edge).

        Raises:
            RoadNetworkError: when the vertex is isolated (no incident edge).
        """
        incident = network.incident_edges(vertex_id)
        if not incident:
            raise RoadNetworkError(f"vertex {vertex_id} has no incident edges")
        edge = incident[0]
        offset = 0.0 if edge.u == vertex_id else edge.length
        return NetworkLocation(edge.edge_id, offset)
