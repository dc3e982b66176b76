"""Road-network substrate.

The paper's "Road Network mode" runs the INS algorithm on a planar undirected
graph whose vertices carry coordinates and whose data objects sit on
vertices.  This package provides everything that mode needs:

* :mod:`repro.roadnet.graph` — the road-network graph model.
* :mod:`repro.roadnet.location` — positions on edges (the moving query).
* :mod:`repro.roadnet.shortest_path` — the two search loops (an unlabelled
  expansion and a labelled flood) and the Dijkstra variants built on them.
* :mod:`repro.roadnet.knn` — network kNN by incremental network expansion.
* :mod:`repro.roadnet.network_voronoi` — the network Voronoi diagram, edge
  ownership and the order-1 network Voronoi neighbour relation.
* :mod:`repro.roadnet.generators` — synthetic road-network generators.
"""

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.roadnet.shortest_path import (
    bounded_dijkstra,
    dijkstra,
    distances_from_location,
    multi_source_dijkstra,
    shortest_path_distance,
)
from repro.roadnet.knn import network_knn, network_knn_from_vertex
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.generators import (
    grid_network,
    place_objects,
    random_planar_network,
    ring_radial_network,
)

__all__ = [
    "RoadNetwork",
    "NetworkLocation",
    "dijkstra",
    "bounded_dijkstra",
    "multi_source_dijkstra",
    "shortest_path_distance",
    "distances_from_location",
    "network_knn",
    "network_knn_from_vertex",
    "NetworkVoronoiDiagram",
    "grid_network",
    "ring_radial_network",
    "random_planar_network",
    "place_objects",
]
