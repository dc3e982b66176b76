"""Index maintenance without repairs: the references the incremental paths are tested against.

``VoRTree`` and ``NetworkVoronoiDiagram`` repair their neighbour lists locally
on every mutation, and ``full_rebuild()`` recomputes them from scratch.  The
classes here apply the bookkeeping of a mutation and then call
``full_rebuild()`` instead of repairing — the pre-incremental behaviour — so a
test that drives one beside the product sees exactly what the repairs change.
Every mutation reports every active object as changed, as a rebuild must.

``TREES``, ``DIAGRAMS`` and ``ROAD_SERVERS`` name the two under the labels the
tests report them with: ``"incremental"`` (the product) and ``"rebuild"``.
"""

from repro.core.road_server import MovingRoadKNNServer
from repro.errors import EmptyDatasetError, QueryError
from repro.index.vortree import VoRTree
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram


class RebuildingVoRTree(VoRTree):
    """A VoR-tree whose every insert and delete rebuilds its lists."""

    def insert(self, point):
        index = self._append_object(point)
        self.full_rebuild()
        return index, set(self.active_indexes())

    def delete(self, index):
        if not self.is_active(index):
            return False, set()
        if len(self) <= 1:
            raise QueryError("cannot delete the last remaining data object")
        self._drop_object(index)
        self.full_rebuild()
        return True, set(self.active_indexes())


class RebuildingNetworkVoronoiDiagram(NetworkVoronoiDiagram):
    """A network Voronoi diagram whose every insert, removal and move rebuilds it."""

    def insert_object(self, vertex):
        index = len(self._object_vertices)
        self._object_vertices.append(vertex)
        self._active.append(True)
        self._active_count += 1
        return index, self.full_rebuild()

    def remove_object(self, index):
        if not self.is_active(index):
            raise QueryError(f"object {index} does not exist (or was removed)")
        if len(self) <= 1:
            raise EmptyDatasetError("cannot remove the last remaining data object")
        self._active[index] = False
        self._active_count -= 1
        return self.full_rebuild()

    def move_object(self, index, new_vertex):
        if self.object_vertex(index) == new_vertex:
            return set()
        self._object_vertices[index] = new_vertex
        return self.full_rebuild()


class RebuildingRoadServer(MovingRoadKNNServer):
    """A road server over a :class:`RebuildingNetworkVoronoiDiagram`."""

    def __init__(self, network, object_vertices):
        super().__init__(network, object_vertices)
        self._voronoi = RebuildingNetworkVoronoiDiagram(
            network, list(object_vertices), self._search_stats
        )


TREES = {"incremental": VoRTree, "rebuild": RebuildingVoRTree}
DIAGRAMS = {"incremental": NetworkVoronoiDiagram, "rebuild": RebuildingNetworkVoronoiDiagram}
ROAD_SERVERS = {"incremental": MovingRoadKNNServer, "rebuild": RebuildingRoadServer}
