"""Network Voronoi diagrams and network Voronoi neighbours.

The order-1 network Voronoi diagram assigns every point of the road network
(vertices and points along edges) to its nearest data object by network
distance.  The INS road-network algorithm (Section IV of the paper) only
needs two by-products of the diagram:

* the *neighbour relation* — two objects are network Voronoi neighbours when
  their cells share a border point; Theorem 1 shows the union of the
  neighbours of the current kNNs is a superset of the MIS, and
* the *edge ownership* map — which object(s) own (parts of) each edge; this
  defines the sub-network of Theorem 2 used for localized validation.

Both are computed from one multi-source Dijkstra: for an edge ``(u, v)`` the
owner of a point at offset ``t`` is either ``owner(u)`` (reached through
``u``) or ``owner(v)`` (reached through ``v``), because
``d(x, o) = min(t + d(u, o), length - t + d(v, o))`` and each of the two
terms is minimised by the corresponding endpoint's owner.  When the two
owners differ, the cells meet at a border point in the interior of the edge
and the owners are Voronoi neighbours.

**Data-object updates are incremental.**
:meth:`NetworkVoronoiDiagram.insert_object`,
:meth:`NetworkVoronoiDiagram.remove_object` and
:meth:`NetworkVoronoiDiagram.move_object` repair the diagram locally with
:func:`~repro.roadnet.shortest_path.flood`:

* an insert floods outward from the new object's vertex, conquering only the
  vertices it beats (the standard "shrink the losing cells" repair — a
  vertex whose old distance survives cannot relay a better path, so the
  flood stops exactly at the new cell's border);
* a delete re-floods only the removed object's cell, seeded from the
  surviving cells on its boundary ("flood the freed region from its rim");
* a move is a delete-repair followed by an insert-repair under the same
  object index.

Each repair patches the vertex distances/owners, the edge ownership, two
inverted indexes (owner → owned vertices, owner → owned edges) and the
neighbour map in place, and reports the set of objects whose neighbour sets
changed — the same delta contract as the Euclidean
:meth:`~repro.index.vortree.VoRTree.insert`.  Removed objects
keep their index as tombstones so identifiers held by callers stay stable.
The from-scratch construction remains available as :meth:`full_rebuild`,
the correctness oracle of the randomized equivalence tests, and as the
single build that :meth:`batch_update` runs for a large burst.

**Distance ties are broken deterministically by owner id**, in the repair
floods *and* in the from-scratch build, because all three are the same
labelled flood: a vertex at exactly equal distance from several objects is
owned by the smallest object index among them, and a cell shared by
co-located objects is labelled by its smallest member (the group
*representative*).  The payoff: an incrementally maintained diagram
compares *equal* to a freshly rebuilt one — owners, edge ownership,
neighbour map — even on uniform grids, where every edge has the same length
and tie chains are endemic, so the equivalence tests need no tie-tolerant
escape hatch.

The owner → edges inverted index also turns :meth:`cell_edges` from an
O(|E|) scan into an O(cell) lookup.  Serving never materialises the
Theorem 2 region: the validation search reads :meth:`vertex_owners` as it
relaxes, and :meth:`cell_edges` is the reference the tests hold that lookup
to.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.objects import immutable
from repro.errors import EmptyDatasetError, QueryError, RoadNetworkError
from repro.roadnet.graph import Edge, RoadNetwork
from repro.roadnet.shortest_path import SearchStats, flood, multi_source_dijkstra


@immutable
class EdgeOwnership:
    """Ownership of one edge in the order-1 network Voronoi diagram.

    Attributes:
        edge_id: the edge described.
        owner_u: object index owning the part of the edge adjacent to ``u``.
        owner_v: object index owning the part of the edge adjacent to ``v``.
        border_offset: offset (from ``u``) of the border point between the
            two cells, or None when a single object owns the whole edge.
    """

    edge_id: int
    owner_u: int
    owner_v: int
    border_offset: Optional[float]

    @property
    def is_split(self) -> bool:
        """True when the edge is shared between two different cells."""
        return self.border_offset is not None and self.owner_u != self.owner_v

    def owners(self) -> Set[int]:
        """The set of objects owning some part of the edge."""
        return {self.owner_u, self.owner_v}


class NetworkVoronoiDiagram:
    """Order-1 network Voronoi diagram of data objects placed on vertices.

    Args:
        network: the road network.
        object_vertices: ``object_vertices[i]`` is the vertex of object ``i``.
            Multiple objects on the same vertex are allowed but the cell (and
            the neighbour relation) of co-located objects is shared.
        stats: optional search-effort accumulator for the construction and
            for later incremental repairs.

    Internally every vertex is labelled with the *representative* of the
    objects at its nearest object vertex (the first object listed there);
    co-located non-representative objects have empty cells but share the
    representative's neighbour relation, exactly as the from-scratch
    construction produced.
    """

    def __init__(
        self,
        network: RoadNetwork,
        object_vertices: Sequence[int],
        stats: Optional[SearchStats] = None,
    ):
        if not object_vertices:
            raise EmptyDatasetError("NetworkVoronoiDiagram requires at least one data object")
        for vertex in object_vertices:
            if not network.has_vertex(vertex):
                raise RoadNetworkError(f"object vertex {vertex} not in the network")
        self._network = network
        self._stats = stats
        self._object_vertices: List[int] = list(object_vertices)
        self._active: List[bool] = [True] * len(self._object_vertices)
        self._active_count = len(self._object_vertices)
        # Live state (all patched in place by the incremental repairs):
        self._vertex_objects: Dict[int, List[int]] = {}
        self._vertex_distances: Dict[int, float] = {}
        self._vertex_owners: Dict[int, int] = {}
        self._edge_ownership: Dict[int, EdgeOwnership] = {}
        # Inverted indexes, keyed by representative object index.
        self._owner_vertices: Dict[int, Set[int]] = {}
        self._owner_edges: Dict[int, Set[int]] = {}
        # Geometric adjacency between representatives (cells sharing a border).
        self._rep_neighbors: Dict[int, Set[int]] = {}
        # Object-level neighbour sets (co-location lifted onto every member).
        self._neighbor_map: Dict[int, Set[int]] = {}
        self._full_build()

    # ------------------------------------------------------------------
    # Construction (also the bulk path and the oracle)
    # ------------------------------------------------------------------
    def _full_build(self) -> None:
        """From-scratch construction over the active objects."""
        self._vertex_objects = {}
        for index, vertex in enumerate(self._object_vertices):
            if self._active[index]:
                self._vertex_objects.setdefault(vertex, []).append(index)
        if not self._vertex_objects:
            raise EmptyDatasetError("NetworkVoronoiDiagram requires at least one data object")
        sources = {vertex: group[0] for vertex, group in self._vertex_objects.items()}
        self._vertex_distances, self._vertex_owners = multi_source_dijkstra(
            self._network, sources, self._stats
        )
        reps = set(sources.values())
        self._owner_vertices = {rep: set() for rep in reps}
        for vertex, owner in self._vertex_owners.items():
            self._owner_vertices[owner].add(vertex)
        self._edge_ownership = {}
        self._owner_edges = {rep: set() for rep in reps}
        self._rep_neighbors = {rep: set() for rep in reps}
        for edge in self._network.edges():
            owner_u = self._vertex_owners.get(edge.u)
            owner_v = self._vertex_owners.get(edge.v)
            if owner_u is None or owner_v is None:
                # Disconnected part of the network without any object.
                continue
            self._edge_ownership[edge.edge_id] = self._make_ownership(edge, owner_u, owner_v)
            self._owner_edges[owner_u].add(edge.edge_id)
            self._owner_edges[owner_v].add(edge.edge_id)
            if owner_u != owner_v:
                self._rep_neighbors[owner_u].add(owner_v)
                self._rep_neighbors[owner_v].add(owner_u)
        self._neighbor_map = {}
        self._relift(reps)

    def full_rebuild(self) -> Set[int]:
        """Recompute the whole diagram from scratch.

        This is the pre-incremental O(whole network) update path, kept as
        the oracle the randomized equivalence tests compare the incremental
        repairs against.  Returns the set of active object indexes (every
        neighbour set must be considered changed).
        """
        self._full_build()
        return set(self.active_object_indexes())

    def _make_ownership(self, edge: Edge, owner_u: int, owner_v: int) -> EdgeOwnership:
        if owner_u == owner_v:
            return EdgeOwnership(edge.edge_id, owner_u, owner_v, None)
        # Border point: t + d(u, owner_u) == (length - t) + d(v, owner_v)
        distance_u = self._vertex_distances[edge.u]
        distance_v = self._vertex_distances[edge.v]
        border = (edge.length + distance_v - distance_u) / 2.0
        border = min(max(border, 0.0), edge.length)
        return EdgeOwnership(edge.edge_id, owner_u, owner_v, border)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def insert_object(self, vertex: int) -> Tuple[int, Set[int]]:
        """Add a data object at ``vertex``; returns ``(index, changed)``.

        ``changed`` contains every object whose neighbour set changed (the
        new object included).  The repair floods outward from ``vertex``,
        re-settling only the vertices the new cell conquers, then patches
        the edge ownership and neighbour sets along the new border.
        """
        if not self._network.has_vertex(vertex):
            raise RoadNetworkError(f"object vertex {vertex} not in the network")
        index = len(self._object_vertices)
        self._object_vertices.append(vertex)
        self._active.append(True)
        self._active_count += 1
        group = self._vertex_objects.setdefault(vertex, [])
        # A brand-new object always carries the largest index so far, so
        # appending keeps the group sorted and the representative (its
        # smallest member) unchanged.
        group.append(index)
        if len(group) > 1:
            # Co-located with an existing object: the geometry is unchanged,
            # only the lifted neighbour sets gain the new member.
            rep = group[0]
            changed = self._relift({rep} | self._rep_neighbors.get(rep, set()))
        else:
            changed = self._insert_repair(index)
        return index, changed

    def remove_object(self, index: int) -> Set[int]:
        """Remove object ``index``; returns the objects whose neighbours changed.

        The object keeps its index as a tombstone.  The freed cell (if any)
        is re-flooded from the surviving cells on its boundary.  The last
        remaining active object cannot be removed.
        """
        if not self.is_active(index):
            raise QueryError(f"object {index} does not exist (or was removed)")
        if self.object_count() <= 1:
            raise EmptyDatasetError("cannot remove the last remaining data object")
        self._active[index] = False
        self._active_count -= 1
        changed = self._detach(index)
        changed.discard(index)
        return changed

    def move_object(self, index: int, new_vertex: int) -> Set[int]:
        """Move object ``index`` to ``new_vertex``; returns the changed objects.

        Implemented as a delete-repair followed by an insert-repair under
        the same (stable) object index; the reported set is the union of the
        two repairs' deltas and always contains ``index`` itself, so servers
        can invalidate clients holding the moved object even when its
        neighbour set happens to be preserved.
        """
        if not self.is_active(index):
            raise QueryError(f"object {index} does not exist (or was removed)")
        if not self._network.has_vertex(new_vertex):
            raise RoadNetworkError(f"object vertex {new_vertex} not in the network")
        if self._object_vertices[index] == new_vertex:
            return set()
        changed = self._detach(index)
        self._object_vertices[index] = new_vertex
        group = self._vertex_objects.setdefault(new_vertex, [])
        if group:
            # Landing on an occupied vertex.  The group stays sorted so its
            # representative is always its smallest member; when the incomer
            # *is* that smallest member, the cell's label shrinks — and
            # under the owner-id tie rule a smaller label also wins border
            # ties the old one lost, so the takeover runs as a conquest
            # flood (it re-settles the whole cell at unchanged distances
            # and grabs the newly won tied fringe), not a relabel.
            old_rep = group[0]
            bisect.insort(group, index)
            if group[0] == index:
                changed |= self._insert_repair(index)
                self._purge_empty_label(old_rep)
            else:
                changed |= self._relift(
                    {old_rep} | self._rep_neighbors.get(old_rep, set())
                )
        else:
            group.append(index)
            changed |= self._insert_repair(index)
        changed.add(index)
        return changed

    #: Bulk-rebuild crossover for :meth:`batch_update`, as a fraction of the
    #: active population.  Measured, not guessed (the seed of this threshold
    #: was ``max(16, n/2)``): at n = 250/500/1000 on a 1600-vertex grid the
    #: per-object repairs beat one full build up to bursts of ~30-50% of the
    #: population, the crossover shrinking as the population grows (denser
    #: populations mean cheaper rebuild floods relative to n repairs), so
    #: the constant takes the large-n end (the table is in CHANGES.md).
    BULK_REBUILD_FRACTION = 0.3

    def batch_update(
        self,
        inserts: Sequence[int] = (),
        deletes: Iterable[int] = (),
        moves: Iterable[Tuple[int, int]] = (),
    ) -> Tuple[List[int], List[int], Set[int]]:
        """Apply a burst of object updates as one epoch.

        Inserts are applied first, then moves, then deletions, so a burst
        may replace a large part of the population as long as at least one
        object survives (a draining batch is rejected up front, before
        anything is mutated).  Deletions refer to pre-existing object
        indexes; inactive ones are skipped silently.  Small bursts reuse
        the per-object local repairs; bursts that touch more than
        :data:`BULK_REBUILD_FRACTION` of the population fall back to
        structural updates followed by a *single* from-scratch build, which
        is cheaper than repairing object by object.

        Args:
            inserts: vertices to place new objects on.
            deletes: object indexes to remove.
            moves: ``(object index, new vertex)`` relocations.

        Returns:
            ``(new_indexes, deleted_indexes, changed)``: the indexes given
            to the inserted objects (in order), the indexes actually
            deleted, and the set of surviving objects whose neighbour sets
            changed.
        """
        insert_list = list(inserts)
        move_list = [(index, vertex) for index, vertex in moves]
        delete_list: List[int] = []
        seen: Set[int] = set()
        for index in deletes:
            if self.is_active(index) and index not in seen:
                seen.add(index)
                delete_list.append(index)
        operations = len(insert_list) + len(move_list) + len(delete_list)
        if operations == 0:
            return [], [], set()
        for vertex in insert_list:
            if not self._network.has_vertex(vertex):
                raise RoadNetworkError(f"object vertex {vertex} not in the network")
        for index, vertex in move_list:
            if not self.is_active(index):
                raise QueryError(f"object {index} does not exist (or was removed)")
            if not self._network.has_vertex(vertex):
                raise RoadNetworkError(f"object vertex {vertex} not in the network")
        if self.object_count() + len(insert_list) - len(delete_list) < 1:
            raise EmptyDatasetError("batch update would remove every data object")
        # Per-object repair costs O(one cell) each while a rebuild costs the
        # whole network; see BULK_REBUILD_FRACTION for the crossover.
        bulk_threshold = max(
            16, int(self.object_count() * self.BULK_REBUILD_FRACTION)
        )
        if operations < bulk_threshold:
            changed: Set[int] = set()
            new_indexes: List[int] = []
            for vertex in insert_list:
                index, delta = self.insert_object(vertex)
                new_indexes.append(index)
                changed |= delta
            for index, vertex in move_list:
                changed |= self.move_object(index, vertex)
            deleted: List[int] = []
            for index in delete_list:
                if self.is_active(index):
                    changed |= self.remove_object(index)
                    deleted.append(index)
            changed -= set(deleted)
            return new_indexes, deleted, changed
        # Structural bulk path: apply every mutation, build once.
        new_indexes = []
        for vertex in insert_list:
            new_indexes.append(len(self._object_vertices))
            self._object_vertices.append(vertex)
            self._active.append(True)
        for index, vertex in move_list:
            self._object_vertices[index] = vertex
        deleted = []
        for index in delete_list:
            self._active[index] = False
            deleted.append(index)
        self._active_count += len(new_indexes) - len(deleted)
        self._full_build()
        return new_indexes, deleted, set(self.active_object_indexes())

    # -- repair internals ------------------------------------------------

    def _detach(self, index: int) -> Set[int]:
        """Take object ``index`` out of the diagram (its entry stays in
        ``_object_vertices``; callers handle activation bookkeeping)."""
        vertex = self._object_vertices[index]
        group = self._vertex_objects[vertex]
        if len(group) > 1:
            if group[0] == index:
                return self._promote_representative(vertex)
            group.remove(index)
            self._neighbor_map.pop(index, None)
            rep = group[0]
            return self._relift({rep} | self._rep_neighbors.get(rep, set()))
        del self._vertex_objects[vertex]
        return self._remove_repair(index)

    def _promote_representative(self, vertex: int) -> Set[int]:
        """Hand a removed representative's cell to its co-located successor.

        Under the owner-id tie rule the label matters: border vertices the
        cell held through ties under the old (smaller) label may now belong
        to neighbours whose labels undercut the successor's, so the cell is
        re-flooded — rim offers plus the successor's own zero-distance seed
        — instead of being relabelled in place.
        """
        group = self._vertex_objects[vertex]
        old_rep = group.pop(0)
        return self._remove_repair(old_rep, successor=group[0])

    def _purge_empty_label(self, rep: int) -> None:
        """Drop the inverted-index entries of a label that owns nothing.

        After a cell takeover the drained label is a plain co-located
        group member again; leaving its empty entries behind would make it
        look like a representative to the lifting machinery.
        """
        if not self._owner_vertices.get(rep):
            self._owner_vertices.pop(rep, None)
            self._owner_edges.pop(rep, None)
            self._rep_neighbors.pop(rep, None)

    def _insert_repair(self, index: int) -> Set[int]:
        """Flood a brand-new cell outward from the object's vertex."""
        # The flood conquers every vertex the new label beats on (distance,
        # owner id).  A vertex it does not beat cannot relay a winning path
        # (its owner already reaches everything beyond it at least as
        # cheaply under a smaller label), so it stops at the new border.
        conquered = flood(
            self._network,
            [(0.0, self._object_vertices[index], index)],
            self._vertex_distances,
            self._vertex_owners,
            stats=self._stats,
        )
        cell = self._owner_vertices.setdefault(index, set())
        for vertex, old_owner in conquered.items():
            if old_owner is not None:
                self._owner_vertices[old_owner].discard(vertex)
            cell.add(vertex)
        self._owner_edges.setdefault(index, set())
        self._rep_neighbors.setdefault(index, set())
        adjacency = self._network.adjacency()
        touched_edges = {edge_id for vertex in conquered for _, _, edge_id in adjacency[vertex]}
        affected = {old for old in conquered.values() if old is not None}
        affected.add(index)
        affected |= self._reassign_edges(touched_edges)
        return self._refresh_rep_neighbors(affected)

    def _remove_repair(self, index: int, successor: Optional[int] = None) -> Set[int]:
        """Re-flood a freed cell from the surviving boundary.

        With ``successor`` given (a co-located object promoted to
        representative after ``index`` left the shared vertex), the flood
        additionally seeds the successor at distance zero, so the cell is
        re-fought under its new — larger — label and tied border vertices
        land where the deterministic owner-id rule says they should.
        """
        cell = self._owner_vertices.pop(index)
        old_neighbors = self._rep_neighbors.pop(index, set())
        self._owner_edges.pop(index, None)
        for vertex in cell:
            del self._vertex_distances[vertex]
            del self._vertex_owners[vertex]
        # Flood the freed cell from the rim: every surviving vertex adjacent
        # to it offers its (final, unchanged) distance plus the connecting
        # edge.  Distances outside the cell cannot change — their nearest
        # object was not the removed one — so the flood stays inside it.
        # The rim seeds are all present before the first pop, so distance
        # ties go to the smallest owner id, as in the from-scratch build.
        adjacency = self._network.adjacency()
        seeds: List[Tuple[float, int, int]] = []
        touched_edges: Set[int] = set()
        for vertex in cell:
            for neighbor, length, edge_id in adjacency[vertex]:
                touched_edges.add(edge_id)
                if neighbor not in cell:
                    owner = self._vertex_owners.get(neighbor)
                    if owner is not None:
                        seeds.append((self._vertex_distances[neighbor] + length, vertex, owner))
        if successor is not None:
            self._owner_vertices.setdefault(successor, set())
            seeds.append((0.0, self._object_vertices[successor], successor))
        settled = flood(
            self._network,
            seeds,
            self._vertex_distances,
            self._vertex_owners,
            within=cell,
            stats=self._stats,
        )
        for vertex in settled:
            self._owner_vertices[self._vertex_owners[vertex]].add(vertex)
        # Vertices never reached again (the removed object served a whole
        # component alone) become unowned, matching the from-scratch build.
        affected = self._reassign_edges(touched_edges)
        affected.discard(index)
        if successor is not None:
            affected.add(successor)
        affected |= old_neighbors
        changed = self._refresh_rep_neighbors(affected)
        self._neighbor_map.pop(index, None)
        return changed

    def _reassign_edges(self, edge_ids: Iterable[int]) -> Set[int]:
        """Recompute the ownership of the given edges; returns touched reps."""
        touched: Set[int] = set()
        for edge_id in edge_ids:
            old = self._edge_ownership.get(edge_id)
            if old is not None:
                for owner in (old.owner_u, old.owner_v):
                    touched.add(owner)
                    owned = self._owner_edges.get(owner)
                    if owned is not None:
                        owned.discard(edge_id)
            edge = self._network.edge(edge_id)
            owner_u = self._vertex_owners.get(edge.u)
            owner_v = self._vertex_owners.get(edge.v)
            if owner_u is None or owner_v is None:
                self._edge_ownership.pop(edge_id, None)
                continue
            self._edge_ownership[edge_id] = self._make_ownership(edge, owner_u, owner_v)
            for owner in (owner_u, owner_v):
                touched.add(owner)
                self._owner_edges.setdefault(owner, set()).add(edge_id)
        return touched

    def _refresh_rep_neighbors(self, reps: Iterable[int]) -> Set[int]:
        """Re-derive the geometric adjacency of ``reps`` from their edges.

        Adjacency changes are always symmetric through a shared recomputed
        edge, so both endpoints of every changed pair are in ``reps``.
        Returns the set of objects whose lifted neighbour sets changed.
        """
        groups: Set[int] = set()
        for rep in reps:
            if rep not in self._owner_vertices:
                continue
            adjacent: Set[int] = set()
            for edge_id in self._owner_edges.get(rep, ()):
                ownership = self._edge_ownership[edge_id]
                if ownership.owner_u != rep:
                    adjacent.add(ownership.owner_u)
                if ownership.owner_v != rep:
                    adjacent.add(ownership.owner_v)
            self._rep_neighbors[rep] = adjacent
            groups.add(rep)
        return self._relift(groups)

    def _relift(self, reps: Iterable[int]) -> Set[int]:
        """Recompute the object-level neighbour sets of the given groups.

        An object's neighbour set is every member of its group's adjacent
        groups plus its own co-located group members — exactly what the
        from-scratch construction's co-location merge produced.  Returns
        the objects whose sets actually changed.
        """
        changed: Set[int] = set()
        for rep in reps:
            if rep not in self._owner_vertices:
                continue
            members = self._vertex_objects[self._object_vertices[rep]]
            if members[0] != rep:
                # A label being drained mid-repair (cell takeover): the
                # group's real representative lifts these members.
                continue
            adjacent: Set[int] = set()
            for neighbor_rep in self._rep_neighbors.get(rep, ()):
                adjacent.update(self._vertex_objects[self._object_vertices[neighbor_rep]])
            member_set = set(members)
            for member in members:
                lifted = (adjacent | member_set) - {member}
                if self._neighbor_map.get(member) != lifted:
                    self._neighbor_map[member] = lifted
                    changed.add(member)
        return changed

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The underlying road network."""
        return self._network

    @property
    def object_vertices(self) -> List[int]:
        """Vertex of each object ever added, in object-index order.

        Entries of removed (tombstoned) objects are stale; use
        :meth:`is_active` / :meth:`active_object_indexes` to filter.
        """
        return list(self._object_vertices)

    @property
    def vertex_assignments(self) -> Sequence[int]:
        """Live read-only view of every object's vertex (tombstones included).

        The returned sequence is the diagram's own storage: it grows as
        objects are inserted and is patched in place by moves, so indexing
        it by object index is always valid.  It must not be mutated.
        """
        return self._object_vertices

    def vertex_objects(self) -> Mapping[int, Sequence[int]]:
        """Live read-only vertex → active-objects map.

        This is the prebuilt map :func:`repro.roadnet.knn.network_knn`
        accepts, saving its O(n) per-call construction.  It must not be
        mutated by callers.
        """
        return self._vertex_objects

    def vertex_owners(self) -> Mapping[int, int]:
        """Live read-only vertex → owning-object map (the cell labels).

        An edge lies in :meth:`cell_edges` of a set of objects iff the owner
        of one of its endpoints is in the set, so this map confines a search
        to those cells (``distances_from_location(..., owners=, cells=)``).
        A rebuild replaces it: ask again per search, and do not mutate it.
        """
        return self._vertex_owners

    def owners_at(self, location) -> Tuple[int, ...]:
        """The cell a network location lies in: its owner, both owners of its
        edge on their border, or none where no object reaches the edge."""
        ownership = self._edge_ownership.get(location.edge_id)
        if ownership is None:
            return ()
        border = ownership.border_offset
        if border is None or location.offset < border:
            return (ownership.owner_u,)
        if location.offset > border:
            return (ownership.owner_v,)
        return (ownership.owner_u, ownership.owner_v)

    def __len__(self) -> int:
        """Number of active data objects (a counter kept beside ``_active``)."""
        return self._active_count

    object_count = __len__

    def is_active(self, index: int) -> bool:
        """True when object ``index`` exists and has not been removed."""
        return 0 <= index < len(self._object_vertices) and self._active[index]

    def active_indexes(self) -> List[int]:
        """Indexes of the objects currently present in the diagram."""
        return [index for index, active in enumerate(self._active) if active]

    active_object_indexes = active_indexes

    def object_vertex(self, index: int) -> int:
        """The vertex object ``index`` currently sits on."""
        if not self.is_active(index):
            raise QueryError(f"object {index} does not exist (or was removed)")
        return self._object_vertices[index]

    def neighbors_of(self, object_index: int) -> Set[int]:
        """Network Voronoi neighbours of object ``object_index``."""
        if not self.is_active(object_index):
            raise QueryError(f"object {object_index} does not exist (or was removed)")
        return set(self._neighbor_map[object_index])

    def influential_neighbor_set(self, member_indexes: Iterable[int]) -> Set[int]:
        """The INS of a set of objects (Definition 4, network version)."""
        members = set(member_indexes)
        result: Set[int] = set()
        for index in members:
            result.update(self._neighbor_map[index])
        return result - members

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def cell_edges(self, object_indexes: Iterable[int]) -> Set[int]:
        """Edges any part of which is owned by one of ``object_indexes``.

        This is the Theorem 2 region — the edges a validation search may
        use — when called with the union of the current kNN set and its INS;
        the search itself filters by :meth:`vertex_owners` instead.
        Answered from the owner → edges inverted index in O(result), not
        O(|E|).
        """
        result: Set[int] = set()
        for index in set(object_indexes):
            owned = self._owner_edges.get(index)
            if owned:
                result |= owned
        return result
