"""The road-network graph model.

A road network is a planar undirected connected graph ``G = <V, E>`` whose
vertices carry 2-D coordinates (used for drawing and for generating
trajectories) and whose edges carry positive lengths (used for all network
distance computations).  Data objects are assumed to sit on vertices, as in
Section IV of the paper; the generators in :mod:`repro.roadnet.generators`
follow that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import RoadNetworkError
from repro.geometry.point import Point


# Snapshots pickle this record with its ``__dict__``, which a row cannot load.
@dataclass(frozen=True)
class Edge:
    """An undirected road segment between two vertices.

    Attributes:
        edge_id: identifier of the edge, unique within its network.
        u: identifier of one endpoint vertex.
        v: identifier of the other endpoint vertex.
        length: positive travel length of the edge.
    """

    edge_id: int
    u: int
    v: int
    length: float

    def has_endpoint(self, vertex_id: int) -> bool:
        """True when ``vertex_id`` is one of the edge's endpoints."""
        return vertex_id in (self.u, self.v)


class RoadNetwork:
    """A mutable undirected road network.

    Vertices and edges are referred to by integer identifiers.  Identifiers
    are assigned by the network (``add_vertex`` / ``add_edge`` return them),
    which keeps bookkeeping trivial for the generators.

    Adjacency is stored once, per vertex, as the ready
    ``(neighbor, length, edge_id)`` triples every search iterates, in edge
    insertion order.  :meth:`neighbors` hands that tuple out as is — O(1)
    and allocation-free, and immutable, because every search in the process
    shares it.
    """

    def __init__(self) -> None:
        self._vertex_positions: Dict[int, Point] = {}
        self._edges: Dict[int, Edge] = {}
        self._neighbors: Dict[int, Tuple[Tuple[int, float, int], ...]] = {}
        self._next_vertex_id = 0
        self._next_edge_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, position: Point) -> int:
        """Add a vertex at ``position`` and return its identifier."""
        vertex_id = self._next_vertex_id
        self._next_vertex_id += 1
        self._vertex_positions[vertex_id] = position
        self._neighbors[vertex_id] = ()
        return vertex_id

    def add_edge(self, u: int, v: int, length: Optional[float] = None) -> int:
        """Add an undirected edge between vertices ``u`` and ``v``.

        Args:
            u: first endpoint identifier.
            v: second endpoint identifier.
            length: edge length; defaults to the Euclidean distance between
                the endpoint positions.

        Returns:
            The new edge's identifier.

        Raises:
            RoadNetworkError: for unknown endpoints, self-loops or
                non-positive lengths.
        """
        if u not in self._vertex_positions or v not in self._vertex_positions:
            raise RoadNetworkError(f"edge ({u}, {v}) refers to an unknown vertex")
        if u == v:
            raise RoadNetworkError("self-loop edges are not allowed")
        if length is None:
            length = self._vertex_positions[u].distance_to(self._vertex_positions[v])
        if length <= 0:
            raise RoadNetworkError("edge length must be positive")
        edge_id = self._next_edge_id
        self._next_edge_id += 1
        edge = Edge(edge_id=edge_id, u=u, v=v, length=length)
        self._edges[edge_id] = edge
        self._neighbors[u] += ((v, length, edge_id),)
        self._neighbors[v] += ((u, length, edge_id),)
        return edge_id

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def vertex_count(self) -> int:
        """Number of vertices."""
        return len(self._vertex_positions)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def total_length(self) -> float:
        """Sum of all edge lengths."""
        return sum(edge.length for edge in self._edges.values())

    def vertices(self) -> List[int]:
        """All vertex identifiers."""
        return list(self._vertex_positions)

    def has_vertex(self, vertex_id: int) -> bool:
        """True when ``vertex_id`` is a vertex of the network.

        O(1) — prefer this over materialising ``set(network.vertices())``
        just to validate an identifier.
        """
        return vertex_id in self._vertex_positions

    def has_vertices(self, vertex_ids: Iterable[int]) -> bool:
        """True when every identifier in ``vertex_ids`` is a vertex."""
        return all(vertex_id in self._vertex_positions for vertex_id in vertex_ids)

    def edges(self) -> List[Edge]:
        """All edges."""
        return list(self._edges.values())

    def vertex_position(self, vertex_id: int) -> Point:
        """Coordinates of a vertex."""
        try:
            return self._vertex_positions[vertex_id]
        except KeyError:
            raise RoadNetworkError(f"unknown vertex {vertex_id}") from None

    def edge(self, edge_id: int) -> Edge:
        """The edge with identifier ``edge_id``."""
        try:
            return self._edges[edge_id]
        except KeyError:
            raise RoadNetworkError(f"unknown edge {edge_id}") from None

    def neighbors(self, vertex_id: int) -> Tuple[Tuple[int, float, int], ...]:
        """Adjacent vertices of ``vertex_id`` as ``(vertex, length, edge_id)`` triples.

        The stored tuple itself, not a copy: one per incident edge, in edge
        insertion order.
        """
        try:
            return self._neighbors[vertex_id]
        except KeyError:
            raise RoadNetworkError(f"unknown vertex {vertex_id}") from None

    def adjacency(self) -> Mapping[int, Tuple[Tuple[int, float, int], ...]]:
        """Live read-only ``vertex → neighbour triples`` map, one entry per
        vertex as :meth:`neighbors` returns it.  The searches look it up once
        and subscript it per settled vertex; it must not be mutated."""
        return self._neighbors

    def incident_edges(self, vertex_id: int) -> List[Edge]:
        """Edges incident to ``vertex_id``."""
        return [self._edges[edge_id] for _, _, edge_id in self.neighbors(vertex_id)]

    def degree(self, vertex_id: int) -> int:
        """Number of edges incident to ``vertex_id``."""
        return len(self.neighbors(vertex_id))

    def find_edge(self, u: int, v: int) -> Optional[Edge]:
        """The edge connecting ``u`` and ``v``, or None when there is none."""
        for neighbor, _, edge_id in self.neighbors(u):
            if neighbor == v:
                return self._edges[edge_id]
        return None

    # ------------------------------------------------------------------
    # Structure checks
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True when every vertex is reachable from every other vertex."""
        if not self._vertex_positions:
            return True
        start = next(iter(self._vertex_positions))
        return len(self.connected_component(start)) == len(self._vertex_positions)

    def connected_component(self, vertex_id: int) -> Set[int]:
        """All vertices reachable from ``vertex_id``."""
        seen: Set[int] = {vertex_id}
        stack = [vertex_id]
        while stack:
            current = stack.pop()
            for neighbor, _, _ in self.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen

    def subnetwork(self, edge_ids: Iterable[int]) -> Tuple["RoadNetwork", Dict[int, int], Dict[int, int]]:
        """Build the sub-network induced by a set of edges, as a copy.

        Theorem 2 says validation in road networks only needs the network
        formed by the Voronoi cells of the kNN set and its INS.  Serving
        never copies: the search filters edges by the owners of their
        endpoints (``distances_from_location(..., owners=, cells=)``).  This
        materialised form of ``diagram.cell_edges(cells)`` is the reference
        that owner filter is tested against.

        Returns:
            A triple ``(network, vertex_map, edge_map)`` where ``vertex_map``
            maps original vertex identifiers to identifiers in the new
            network and ``edge_map`` maps original edge identifiers likewise.
        """
        subnetwork = RoadNetwork()
        vertex_map: Dict[int, int] = {}
        edge_map: Dict[int, int] = {}
        for edge_id in edge_ids:
            edge = self.edge(edge_id)
            for endpoint in (edge.u, edge.v):
                if endpoint not in vertex_map:
                    vertex_map[endpoint] = subnetwork.add_vertex(self.vertex_position(endpoint))
            edge_map[edge_id] = subnetwork.add_edge(
                vertex_map[edge.u], vertex_map[edge.v], edge.length
            )
        return subnetwork, vertex_map, edge_map
