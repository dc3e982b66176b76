"""Readouts of a :class:`~repro.roadnet.network_voronoi.NetworkVoronoiDiagram`
that only the tests ask for: who owns a vertex and how far it is from its
owner, how an edge is split between two cells, the whole neighbour map and
the network length of one cell.  Serving reads none of them; the tests hold
the diagram's cells to oracles and known answers through these.
"""

from typing import Dict, Optional, Set

from repro.roadnet.network_voronoi import EdgeOwnership, NetworkVoronoiDiagram


def vertex_owner(diagram: NetworkVoronoiDiagram, vertex_id: int) -> Optional[int]:
    """Object index owning ``vertex_id`` (None for unreachable vertices)."""
    return diagram.vertex_owners().get(vertex_id)


def vertex_distance(diagram: NetworkVoronoiDiagram, vertex_id: int) -> float:
    """Distance from ``vertex_id`` to its nearest data object."""
    return diagram._vertex_distances[vertex_id]


def edge_ownership(diagram: NetworkVoronoiDiagram, edge_id: int) -> Optional[EdgeOwnership]:
    """Ownership description of ``edge_id`` (None for unreachable edges)."""
    return diagram._edge_ownership.get(edge_id)


def neighbor_map(diagram: NetworkVoronoiDiagram) -> Dict[int, Set[int]]:
    """A copy of the full object -> neighbour-set mapping (active objects)."""
    return {index: set(neighbors) for index, neighbors in diagram._neighbor_map.items()}


def cell_length(diagram: NetworkVoronoiDiagram, object_index: int) -> float:
    """Total network length owned by ``object_index``."""
    total = 0.0
    for edge_id in diagram._owner_edges.get(object_index, ()):
        ownership = diagram._edge_ownership[edge_id]
        edge = diagram.network.edge(edge_id)
        if ownership.owner_u == ownership.owner_v:
            if ownership.owner_u == object_index:
                total += edge.length
        else:
            if ownership.owner_u == object_index:
                total += ownership.border_offset or 0.0
            if ownership.owner_v == object_index:
                total += edge.length - (ownership.border_offset or 0.0)
    return total
