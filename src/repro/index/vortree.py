"""The VoR-tree: data objects that carry their Voronoi neighbour lists.

Sharifzadeh and Shahabi's VoR-tree (PVLDB 2010) stores, with every point,
the list of that point's order-1 Voronoi neighbours.  The INSQ system keeps
only the objects and those lists (paper §III, Definitions 3-4) and uses the
lists for everything: the VoR-tree's own kNN *finds* the ⌊ρk⌋ nearest
objects R by expanding over them from an object the client already holds
(:meth:`VoRTree.retrieve`), the influential neighbour set I(R) *is* what
that expansion leaves on its frontier, and point location is a greedy walk
over the same lists.  A hintless retrieval walks from jump-and-walk's sample
(Mücke, Saias & Zhu, SoCG 1996): the nearest of about n^⅓ evenly strided
objects.  An insert walks from its own grid cell: beside the lists the tree
keeps one flat table, cell -> one live object in or beside it (bucketing, as
in Su & Drysdale's survey of incremental Delaunay construction, CGTA 1997),
sized at :data:`VoRTree.SITES_PER_CELL` objects per cell and built by the
first located insert, so a tree that only answers queries never pays for it.

**Data-object updates are incremental and report their deltas.**
The tree holds the live :class:`~repro.geometry.delaunay.DelaunayTriangulation`
of its positions itself: :meth:`VoRTree.insert` and :meth:`VoRTree.delete`
call its ``insert_site`` / ``remove_site``, which carve only the affected
Delaunay cavity / star — convex-hull objects included — and edit the dual's
link rows in place.  An interior object with no twin at or beside its site
holds its site's row as its list (the neighbours are its keys), so an update
builds no list but a hull object's ghost-free frozenset and the lists around
twins.  No step of an update is O(n) but the table's one build, and an
insert is located by one walk to the nearest object, where the dual's cavity
search starts.  The walk ends there from any start, so the table changes no
list and no delta.  Every mutation *returns* the objects whose lists changed
(the delta contract of
:meth:`repro.roadnet.network_voronoi.NetworkVoronoiDiagram.insert_object`),
so the serving engine invalidates only the queries whose held R it names.
:meth:`VoRTree.full_rebuild` is the from-scratch oracle of the randomized
equivalence tests.  :meth:`VoRTree.batch_update` applies a burst as one
epoch, with a single full rebuild when the burst is large enough that
per-object patching would be wasted work.  ``insq_index_rebuilds_total``
counts the rebuilds that remain by reason: ``geometry_error`` (an update the
dual refuses, or fewer than three or only collinear positions, which have no
dual but the chain along the line) and ``bulk_threshold``.

**One id space.**  An object's index is its site's and the dual's vertex's.
Objects at one position share the site the first active one founds; later
*twins* are tombstones of the dual (``active=``).  A twin's list is its
site's neighbours' objects plus its own twins, so the INS theorem and the
retrieval walk hold over the lists exactly.
"""

from __future__ import annotations

from heapq import heappop, heappush, nsmallest
from itertools import compress
from math import dist, sqrt
from typing import AbstractSet, Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import EmptyDatasetError, GeometryError, QueryError
from repro.geometry.delaunay import DelaunayTriangulation, delaunay_neighbors
from repro.geometry.point import Point, bounding_coordinates
from repro.geometry.voronoi import influential_neighbor_indexes
from repro.obs.metrics import counter as _obs_counter

_REBUILDS = {
    reason: _obs_counter("insq_index_rebuilds_total", reason=reason)
    for reason in ("geometry_error", "bulk_threshold")
}
_FALLBACKS = {
    reason: _obs_counter("insq_retrieval_fallbacks_total", reason=reason)
    for reason in ("no_seed", "short", "uncertified")
}


class VoRTree:
    """Data objects with precomputed Voronoi neighbour lists.

    The tree also supports *data-object updates* (Section III of the paper
    mentions that the kNN set and IS must be refreshed when they happen):
    :meth:`insert` and :meth:`delete` maintain the Voronoi neighbour lists
    incrementally.  Deleted objects keep their index (as tombstones) so that
    object identifiers held by clients stay stable.

    Args:
        points: data-object positions.  Object ``i`` is the i-th point.
    """

    def __init__(self, points: Sequence[Point]):
        if not points:
            raise EmptyDatasetError("VoRTree requires at least one data object")
        self._points: List[Point] = list(points)
        # One (x, y) row per object beside ``_points``: what every search reads.
        self._xy: List[Tuple[float, float]] = [(point.x, point.y) for point in self._points]
        self._active: List[bool] = [True] * len(self._points)
        self._active_count = len(self._points)
        # Object -> its list: a dual's row (keys) or a frozenset.
        self._neighbor_map: Dict[int, Collection[int]] = {}
        # The live triangulation over one site per position; without one
        # (fewer than three or collinear positions) the chain's site lists.
        self._dual: Optional[DelaunayTriangulation] = None
        self._chain: Dict[int, Set[int]] = {}
        # Exact position -> its site; site -> its active objects, kept only
        # where that is not the site alone (twins, or a deleted founder).
        self._site_at: Dict[Tuple[float, float], int] = {}
        self._members: Dict[int, List[int]] = {}
        # Point location: grid cell -> a live object in or near it, built by
        # the first located insert (:meth:`_locate`).
        self._cells: Optional[Dict[Tuple[float, float], int]] = None
        self._cell_side = 0.0
        self._rebuild_neighbor_map()

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        # Pickled beside an R-tree (point location walks the lists now), before
        # the (x, y) rows, when sites were numbered apart, or over a diagram
        # layer between the tree and its dual (the last two are rebuilt).
        stale = (
            "_rtree", "_last_batch_bulk", "_site_of_object", "_object_of_site", "_occupied",
            "_voronoi",
        )
        for name in stale:
            self.__dict__.pop(name, None)
        if "_xy" not in state:
            self._xy = [(point.x, point.y) for point in self._points]
        if "_site_of_object" in state or "_voronoi" in state:
            self._rebuild_neighbor_map()
        self._cells = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._active_count

    @property
    def points(self) -> List[Point]:
        """A copy of every object position ever indexed (including tombstones).

        Hot paths should prefer :attr:`positions`, which avoids copying the
        whole list on every access.
        """
        return list(self._points)

    @property
    def positions(self) -> Sequence[Point]:
        """Live read-only view of every object position (including tombstones).

        The returned sequence is the tree's own storage: it grows as objects
        are inserted, and indexing it by object index is always valid.  It
        must not be mutated by callers.
        """
        return self._points

    @property
    def coordinates(self) -> Sequence[Tuple[float, float]]:
        """Live read-only view of every object's ``(x, y)``, like :attr:`positions`."""
        return self._xy

    def active_indexes(self) -> List[int]:
        """Indexes of the objects currently present (not deleted)."""
        return [index for index, active in enumerate(self._active) if active]

    def is_active(self, index: int) -> bool:
        """True when object ``index`` exists and has not been deleted."""
        return 0 <= index < len(self._points) and self._active[index]

    @property
    def voronoi(self) -> Optional[DelaunayTriangulation]:
        """The live Delaunay dual of the active objects' positions.

        None when fewer than three positions or only collinear ones are left
        (their lists are the chain along the line).  Site ``i`` is object
        ``i`` — or, once that founding object is deleted, the position its
        surviving twins share; one active site per distinct active position.
        """
        return self._dual

    def point(self, index: int) -> Point:
        """Position of data object ``index``."""
        return self._points[index]

    def voronoi_neighbors(self, index: int) -> AbstractSet[int]:
        """Precomputed order-1 Voronoi neighbours of data object ``index``.

        Live read-only view, like :attr:`positions`: the keys of the tree's own
        record (without twins, an interior site's link row in the dual), edited
        in place by later updates, so reading it copies nothing.  A caller
        keeping it across one copies it.
        """
        if not self.is_active(index):
            raise QueryError(f"object {index} does not exist (or was deleted)")
        neighbors = self._neighbor_map.get(index, frozenset())
        return neighbors.keys() if type(neighbors) is dict else neighbors

    # ------------------------------------------------------------------
    # Data-object updates
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> Tuple[int, Set[int]]:
        """Add a data object at ``point``; returns ``(index, changed)``.

        ``changed`` is the set of objects whose Voronoi neighbour lists
        changed (the new object included) — the delta a server pushes to its
        registered queries.  The neighbour lists are updated incrementally:
        only the objects whose Delaunay cavity the new point carves get their
        lists re-derived, and the cavity is located from the nearest existing
        object, walked to from the object the point's cell names
        (:meth:`_locate`).  The cavity is unique, so where the walk starts
        changes no list and no delta.
        An object at an occupied position joins that site: ``changed`` is
        the site's and its neighbours' objects.  After a from-scratch rebuild
        ``changed`` is every active object.
        """
        row = (point.x, point.y)
        site = self._site_at.get(row)
        if site is not None and len(self._site_at) > 1:
            index = self._append_object(point)
            if self._dual is not None:
                self._dual.add_tombstone(point)
            self._members.setdefault(site, [site]).append(index)
            return index, self._patch_neighbor_lists(self._site_and_neighbors(site))
        if self._dual is None:  # one position, or a chain the object may leave
            index = self._append_object(point)
            return index, self._rebuilt()
        cell, nearest = self._locate(row)
        hint = self._site_at[self._xy[nearest]]
        index = self._append_object(point)
        try:
            _, changed_sites = self._dual.insert_site(point, hint=hint)
        except GeometryError:  # refused before anything was edited
            return index, self._rebuilt()
        self._site_at[row] = index
        self._cells[cell] = index
        return index, self._patch_neighbor_lists(changed_sites)

    def delete(self, index: int) -> Tuple[bool, Set[int]]:
        """Remove data object ``index``; returns ``(removed, changed)``.

        ``removed`` is True when the object existed and was removed;
        ``changed`` is the set of surviving objects whose neighbour lists
        changed (the deleted object is reported separately by callers).
        The last remaining active object cannot be deleted.  Only the
        neighbour lists of the objects adjacent to the deleted one are
        re-derived, whether it sat inside the convex hull or on it; only
        when fewer than three or only collinear positions are left does the
        tree rebuild, and report, every active object.  A deleted object
        with twins left changes only the lists at its site and around it.
        """
        if not self.is_active(index):
            return False, set()
        if len(self) <= 1:
            raise QueryError("cannot delete the last remaining data object")
        self._drop_object(index)
        if len(self._site_at) < 2:
            return True, self._rebuilt()
        self._neighbor_map.pop(index)
        site = self._site_at[self._xy[index]]
        members = self._members.get(site)
        if members is not None and len(members) > 1:
            members.remove(index)
            self._heal_cell(index, members[0])
            if members == [site]:
                del self._members[site]
            return True, self._patch_neighbor_lists(self._site_and_neighbors(site))
        del self._site_at[self._xy[index]]
        self._members.pop(site, None)
        if self._dual is None:  # a chain: what is left is a line again or less
            return True, self._rebuilt()
        try:
            changed_sites = self._dual.remove_site(site)
        except GeometryError:  # refused before anything was edited
            return True, self._rebuilt()
        survivor = next(iter(changed_sites))
        self._heal_cell(index, self._members.get(survivor, (survivor,))[0])
        return True, self._patch_neighbor_lists(changed_sites)

    #: Bulk-rebuild crossover for :meth:`batch_update`, as a fraction of the
    #: active population.  Measured by
    #: ``benchmarks/bench_pr2_batch_crossover.py`` (2:1 insert/delete bursts,
    #: minimum of three seeds; the committed measurement lives in
    #: ``benchmarks/results/PR2_batch_crossover.json``): one full rebuild
    #: overtakes per-object patching between 40% and 60% bursts at
    #: n = 20 000 and between 60% and 100% at n = 2 000.  A rebuild also
    #: reports every object changed, so the tie goes to patching.
    BULK_REBUILD_FRACTION = 0.5

    def batch_update(
        self,
        inserts: Sequence[Point] = (),
        deletes: Iterable[int] = (),
    ) -> Tuple[List[int], List[int], Set[int]]:
        """Apply a burst of object updates as one epoch.

        Deletions always refer to pre-existing object indexes (the points
        inserted by the same batch cannot be deleted by it).  Insertions are
        registered before deletions are applied, so a burst may replace the
        entire population as long as at least one object survives — a batch
        that would drain every object is rejected up front, before anything
        is mutated.  Small bursts reuse the incremental per-object patching;
        bursts that touch more than :data:`BULK_REBUILD_FRACTION` of the
        data set fall back to structural updates followed by a *single*
        neighbour-map rebuild, which is cheaper than patching object by
        object.

        Args:
            inserts: points to add.
            deletes: object indexes to remove.

        Returns:
            ``(new_indexes, deleted_indexes, changed)``: the object indexes
            assigned to the inserted points (in order), the indexes that
            were actually deleted, and the set of surviving objects whose
            Voronoi neighbour lists changed (the epoch's invalidation
            delta; every active object on the bulk-rebuild path).
        """
        insert_list = list(inserts)
        delete_list: List[int] = []
        seen: Set[int] = set()
        for index in deletes:
            if self.is_active(index) and index not in seen:
                seen.add(index)
                delete_list.append(index)
        operations = len(insert_list) + len(delete_list)
        if operations == 0:
            return [], [], set()
        if len(self) + len(insert_list) - len(delete_list) < 1:
            raise QueryError("batch update would remove every data object")
        bulk_threshold = max(8, int(len(self) * self.BULK_REBUILD_FRACTION))
        if len(self._site_at) > 1 and operations < bulk_threshold:
            changed: Set[int] = set()
            new_indexes = []
            for point in insert_list:
                index, delta = self.insert(point)
                new_indexes.append(index)
                changed |= delta
            deleted = []
            for index in delete_list:
                removed, delta = self.delete(index)
                if removed:
                    deleted.append(index)
                    changed |= delta
            changed -= set(deleted)
            return new_indexes, deleted, changed
        for index in delete_list:
            self._drop_object(index)
        new_indexes = [self._append_object(point) for point in insert_list]
        self._rebuild_neighbor_map("bulk_threshold")
        return new_indexes, delete_list, set(self.active_indexes())

    def full_rebuild(self) -> None:
        """Recompute the Voronoi neighbour lists from scratch.

        The pre-incremental O(n) update path, kept as the oracle the
        randomized equivalence tests compare the incremental path against.
        """
        self._rebuild_neighbor_map()

    def _append_object(self, point: Point) -> int:
        """Register a new active object."""
        index = len(self._points)
        self._points.append(point)
        self._xy.append((point.x, point.y))
        self._active.append(True)
        self._active_count += 1
        return index

    def _drop_object(self, index: int) -> None:
        """Tombstone an active object."""
        self._active[index] = False
        self._active_count -= 1

    def _rebuilt(self) -> Set[int]:
        """The fallback of an update the dual cannot take, or of a population
        without one: a counted rebuild, after which every object changed."""
        self._rebuild_neighbor_map("geometry_error")
        return set(self.active_indexes())

    def _rebuild_neighbor_map(self, reason: Optional[str] = None) -> None:
        """From-scratch rebuild of the dual, site bookkeeping and lists.

        The first active object at each position founds its site.
        ``reason`` names the slow path for ``insq_index_rebuilds_total``;
        construction and the :meth:`full_rebuild` oracle pass none.
        """
        if reason is not None:
            _REBUILDS[reason].inc()
        self._site_at = site_at = {}
        self._members = members = {}
        for index in self.active_indexes():
            site = site_at.setdefault(self._xy[index], index)
            if site != index:
                members.setdefault(site, [site]).append(index)
        self._dual, self._chain, self._cells = None, {}, None
        if len(site_at) > 1:
            founders = [site_at.get(row) == index for index, row in enumerate(self._xy)]
            try:
                self._dual = DelaunayTriangulation(self._points, active=founders)
            except GeometryError:
                # Fewer than three or collinear positions: the chain along
                # the line.  Any other failure re-raises from the wrapper.
                sites = list(site_at.values())
                local = delaunay_neighbors([self._points[site] for site in sites])
                self._chain = {
                    sites[i]: {sites[j] for j in neighbors} for i, neighbors in local.items()
                }
        self._neighbor_map = {}
        self._patch_neighbor_lists(site_at.values())

    def _site_and_neighbors(self, site: int) -> List[int]:
        """``site`` and its neighbour sites: the lists a twin joining or
        leaving it changes."""
        neighbors = self._chain[site] if self._dual is None else self._dual.neighbors_of(site)
        return [site, *neighbors]

    def _patch_neighbor_lists(self, changed_sites: Iterable[int]) -> Set[int]:
        """Re-derive the neighbour lists of the objects at changed sites.

        The dual hands out an interior site's live row and a hull site's
        frozenset (:meth:`DelaunayTriangulation.neighbor_sets`).  A site with
        no twin at or beside it takes that as its list, so the dual's next
        edit of a row is the list's too; the objects of a site with twins, or
        next to one, get frozensets built here.  Returns the set of affected
        *object* indexes (the mutation delta).
        """
        if self._dual is None:  # the chain; one site lists only its twins
            lists = {site: self._chain.get(site, frozenset()) for site in changed_sites}
        else:
            lists = self._dual.neighbor_sets(changed_sites)
        members = self._members
        if not members:
            # With no twins anywhere a site's list is the dual's own.
            self._neighbor_map.update(lists)
            return set(lists)
        changed_objects: Set[int] = set()
        for site, neighbors in lists.items():
            own = members.get(site)
            if own is None and members.keys().isdisjoint(neighbors):
                self._neighbor_map[site] = neighbors
                changed_objects.add(site)
                continue
            own = own or (site,)
            around = frozenset(
                obj for other in neighbors for obj in members.get(other, (other,))
            )
            for obj in own:
                self._neighbor_map[obj] = around.union(own).difference((obj,))
            changed_objects.update(own)
        return changed_objects

    # ------------------------------------------------------------------
    # Queries used by the INS processor
    # ------------------------------------------------------------------
    def nearest(self, query: Point, count: int) -> List[int]:
        """The ``count`` nearest active objects, ordered by ``(distance, index)``.

        An exact linear scan that reads no neighbour list: the oracle, and
        :meth:`retrieve`'s fallback where the INS theorem certifies nothing.
        """
        if count <= 0:
            raise QueryError("count must be positive")
        if count > len(self):
            raise QueryError(
                f"requested {count} neighbours but only {len(self)} objects exist"
            )
        xy = self._xy
        q = (query.x, query.y)
        # nsmallest is stable over increasing indexes: ties go by index.
        return nsmallest(
            count, compress(range(len(xy)), self._active), key=lambda index: dist(q, xy[index])
        )

    def influential_neighbor_set(self, member_indexes: Iterable[int]) -> Set[int]:
        """The INS of a set of object indexes (Definition 4 of the paper)."""
        return influential_neighbor_indexes(self._neighbor_map, member_indexes)

    def retrieve(
        self, query: Point, count: int, hint: Optional[int] = None
    ) -> Tuple[List[int], Set[int], List[float]]:
        """``(R, I(R), d(R))`` at ``query``: the one retrieval of a recomputation.

        ``R`` is the ``count`` nearest objects ordered by ``(distance, index)``,
        ``I(R)`` their influential neighbour set and ``d(R)`` R's distances, all
        found by the VoR-tree's own kNN over the stored neighbour lists.  Each
        distance is ``math.dist`` over the ``(x, y)`` rows, bit for bit
        ``query.distance_to``'s ``hypot``: both take one C norm of the absolute
        axis differences.  *Walk* greedily to the object nearest to ``query``,
        from ``hint`` (an object the client holds) or, when that is absent,
        deleted or out of range, from :meth:`_jump`'s sample.  *Expand*
        best-first until ``count`` objects are popped: they are ``R``, their heap
        keys ``d(R)``, and the frontier left — every neighbour of an ``R`` member
        outside ``R`` — is ``I(R)``.  *Certify* by the INS theorem, strictly:
        ``max d(R) < min d(I(R))``.  Otherwise *fall back* to :meth:`nearest` +
        :meth:`influential_neighbor_set`, counted in
        ``insq_retrieval_fallbacks_total`` by reason: ``no_seed``
        (the seed has no neighbour list), ``short`` (the expansion ran dry),
        ``uncertified`` (an exact tie, or no frontier to certify against).
        Coincident objects need no reason of their own: twins are mutual
        neighbours, the walk breaks distance ties by index, and twins
        straddling the ``count``-th distance are a tie like any other.
        """
        if 0 < count <= self._active_count:
            certified, reason = self._expand(query, count, hint)
            if certified is not None:
                return certified
            _FALLBACKS[reason].inc()
        nearest = self.nearest(query, count)
        distances = [dist((query.x, query.y), self._xy[index]) for index in nearest]
        return nearest, self.influential_neighbor_set(nearest), distances

    #: Live objects per cell of the point-location table when it is built.
    #: Measured over ``churn-heavy``'s 3 200 inserts (n = 2 000, uniform):
    #: 24.1 / 17.2 / 15.3 / 15.4 / 16.3 distance evaluations per located
    #: insert at 1 / 2 / 3 / 4 / 6 objects per cell, against 61.3 for the
    #: strided jump alone.
    SITES_PER_CELL = 3

    def _locate(self, q: Tuple[float, float]) -> Tuple[Tuple[float, float], int]:
        """``(cell, nearest)``: ``q``'s cell in the point-location table and
        the nearest live object, walked from the object that cell names, or
        from :meth:`_jump`'s sample when it names none alive.  The first call
        after a rebuild builds the table."""
        if self._cells is None:
            self._build_cells()
        cell = self._cell(q)
        start = self._cells.get(cell)
        if start is None or not self._active[start]:
            start = self._jump(q)
        return cell, self._walk(q, start)[1]

    def _build_cells(self) -> None:
        """One live object per grid cell, the side sized from the live
        population's bounding box to hold :data:`SITES_PER_CELL` of them."""
        live = list(compress(range(len(self._xy)), self._active))
        min_x, min_y, max_x, max_y = bounding_coordinates(self._points[i] for i in live)
        area = (max_x - min_x) * (max_y - min_y)
        self._cell_side = sqrt(area * self.SITES_PER_CELL / len(live)) or 1.0
        xy = self._xy
        self._cells = {self._cell(xy[i]): i for i in live}

    def _heal_cell(self, index: int, survivor: int) -> None:
        """A deleted object's cell names ``survivor`` in its stead, if it
        named the deleted one."""
        if self._cells is not None:
            cell = self._cell(self._xy[index])
            if self._cells.get(cell) == index:
                self._cells[cell] = survivor

    def _cell(self, q: Tuple[float, float]) -> Tuple[float, float]:
        """``q``'s key in the point-location table."""
        side = self._cell_side
        return (q[0] // side, q[1] // side)

    def _jump(self, q: Tuple[float, float]) -> int:
        """The nearest of about n^⅓ live objects, every (n^⅔)-th index.

        The *jump* of jump-and-walk (Mücke, Saias & Zhu, SoCG 1996): a
        strided sample, so it draws no random number and keeps no state.
        """
        xy = self._xy
        stride = max(1, round(self._active_count ** (2 / 3)))
        start = min(
            compress(range(0, len(xy), stride), self._active[::stride]),
            key=lambda index: dist(q, xy[index]),
            default=None,
        )
        return self._active.index(True) if start is None else start

    def _walk(self, q: Tuple[float, float], seed: int) -> Tuple[float, int]:
        """Greedy descent over the neighbour lists from ``seed``: ``(distance,
        index)`` where it stops — a nearest object, since on a Delaunay graph a
        non-nearest object has a strictly nearer neighbour.  It reads only
        positions and lists."""
        neighbors = self._neighbor_map
        xy = self._xy
        best = dist(q, xy[seed])
        walking = True
        while walking:
            walking = False
            for other in neighbors[seed]:
                distance = dist(q, xy[other])
                # By (distance, index), so the walk ends on the first of twins.
                if distance < best or (distance == best and other < seed):
                    best, seed, walking = distance, other, True
        return best, seed

    def _expand(self, query: Point, count: int, seed: Optional[int]):
        """Walk, expand, certify: ``((R, I(R), d(R)), None)`` or ``(None, reason)``."""
        neighbors = self._neighbor_map
        xy = self._xy
        q = (query.x, query.y)
        if seed is None or not self.is_active(seed):
            seed = self._jump(q)
        if not neighbors.get(seed):
            return None, "no_seed"
        last = self._walk(q, seed)
        frontier = [last]
        seen = {last[1]}
        nearest: List[int] = []
        distances: List[float] = []
        for _ in range(count):
            if not frontier:
                return None, "short"
            item = heappop(frontier)
            if item < last:
                # Out of (distance, index) order: the walk stalled on a tie
                # short of the nearest object, so its seed proves nothing.
                return None, "uncertified"
            last = item
            distance, index = item
            nearest.append(index)
            distances.append(distance)
            for other in neighbors[index]:
                if other not in seen:
                    seen.add(other)
                    heappush(frontier, (dist(q, xy[other]), other))
        # An empty frontier certifies only the whole population.
        if not (last[0] < frontier[0][0] if frontier else count == self._active_count):
            return None, "uncertified"
        return (nearest, {member for _, member in frontier}, distances), None
