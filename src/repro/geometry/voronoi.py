"""Order-1 Voronoi diagrams.

The INS algorithm relies on two facts about the order-1 Voronoi diagram of
the data set:

1. the *Voronoi neighbour sets* ``N_O(p)`` can be precomputed and stored with
   little overhead (Definition 3 in the paper), and
2. the union of the neighbour sets of the current kNNs (minus the kNNs) is an
   influential set (Definition 4 / the INS).

This module reads the diagram's neighbour relation off its Delaunay dual:
Voronoi neighbours are Delaunay edges.  INS needs nothing else of the
diagram, so no cell polygon is built here; the safe-region query clips its
order-k cells in :mod:`repro.geometry.order_k`.

**One adjacency.**  Whenever the active sites can be triangulated the
diagram keeps the live :class:`~repro.geometry.delaunay.DelaunayTriangulation`
and nothing beside it: every neighbour query reads the dual's link rows, so
:meth:`VoronoiDiagram.insert_site` and :meth:`VoronoiDiagram.remove_site` are
the dual's updates plus the site bookkeeping, and return the dual's
``changed`` sets.  Removed sites keep their index as tombstones.  **Site ids
are the dual's vertex ids:** the dual is built over the whole site list with
``active=`` masking the tombstones out (never triangulated, no jitter drawn),
so hints, removals and ``changed`` sets cross this layer untranslated.  Only
fewer than three active sites, or collinear ones (judged unperturbed), have
no dual; their neighbour map is the chain along the line.  An update the dual
cannot take rebuilds from scratch and reports every active site, the slow
path ``insq_index_rebuilds_total{reason=geometry_error}`` counts.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import EmptyDatasetError, GeometryError
from repro.geometry.delaunay import DelaunayTriangulation, delaunay_neighbors
from repro.geometry.point import Point
from repro.obs.metrics import counter as _obs_counter

_FALLBACK_REBUILDS = _obs_counter("insq_index_rebuilds_total", reason="geometry_error")


class VoronoiDiagram:
    """Order-1 Voronoi diagram over a list of sites.

    Args:
        sites: the generator points.  Sites are referred to by their index in
            this list throughout the library.
        active: which of ``sites`` exist (default: all).  A masked site is
            a tombstone from the start, so a caller whose ids include points
            that are no sites shares its ids with the diagram and the dual.
    """

    def __init__(
        self,
        sites: Sequence[Point],
        active: Optional[Sequence[bool]] = None,
    ):
        self._sites: List[Point] = list(sites)
        self._active: List[bool] = [True] * len(self._sites) if active is None else list(active)
        self._active_count = sum(self._active)
        if not self._active_count:
            raise EmptyDatasetError("a Voronoi diagram requires at least one site")
        if len(self._active) != len(self._sites):
            raise GeometryError("the active mask must cover every site")
        # The live Delaunay dual, or None with the chain map of a degenerate
        # site set in ``_neighbors`` (None while the dual exists).
        self._delaunay: Optional[DelaunayTriangulation] = None
        self._neighbors: Optional[Dict[int, Set[int]]] = None
        self._build()

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        # Pickled when the diagram clipped cells to a box, perhaps caching
        # them beside a copy of its dual's links: all of that goes, and a
        # dual numbered apart from the sites (or missing) is rebuilt.
        self.__dict__.pop("_bounding_box", None)
        if "_cell_cache" in state:
            del self._cell_cache
            self._neighbors = None
            numbered_apart = self.__dict__.pop("_site_to_vertex", None) is not None
            self.__dict__.pop("_vertex_to_site", None)
            if numbered_apart or self._delaunay is None:
                self._build()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def sites(self) -> List[Point]:
        """The generator points, in index order (tombstones included)."""
        return list(self._sites)

    def __len__(self) -> int:
        return self._active_count

    def is_active(self, index: int) -> bool:
        """True when site ``index`` exists and has not been removed."""
        return 0 <= index < len(self._sites) and self._active[index]

    def active_site_indexes(self) -> List[int]:
        """Indexes of the sites currently present in the diagram."""
        return [index for index, active in enumerate(self._active) if active]

    def site(self, index: int) -> Point:
        """The coordinates of site ``index``."""
        return self._sites[index]

    def neighbors_of(self, index: int) -> Set[int]:
        """Indexes of the order-1 Voronoi neighbours of site ``index``.

        This is the precomputed neighbour set ``N_O(p_index)`` of the paper,
        read off the dual (a fresh set per call).
        """
        if not self.is_active(index):
            raise GeometryError(f"site {index} does not exist (or was removed)")
        if self._delaunay is None:
            return set(self._neighbors[index])
        return self._delaunay.neighbors_of(index)

    def neighbor_sets(self, sites: Iterable[int]) -> Dict[int, Collection[int]]:
        """``{site: neighbours}`` for active ``sites``, no copy: an interior
        site's live row or a hull site's frozenset
        (:meth:`DelaunayTriangulation.neighbor_sets`), or the chain's sets."""
        if self._delaunay is None:
            return {site: self._neighbors[site] for site in sites}
        return self._delaunay.neighbor_sets(sites)

    def neighbor_map(self) -> Dict[int, Set[int]]:
        """A copy of the full site -> neighbour-set mapping (active sites)."""
        if self._delaunay is None:
            return {index: set(neighbors) for index, neighbors in self._neighbors.items()}
        return self._delaunay.neighbors()

    def are_neighbors(self, first: int, second: int) -> bool:
        """True when the two sites' Voronoi cells share an edge."""
        if not self.is_active(first) or not self.is_active(second):
            raise GeometryError("both sites must exist (and not be removed)")
        return second in self.neighbors_of(first)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def insert_site(self, point: Point, hint: Optional[int] = None) -> Tuple[int, Set[int]]:
        """Add a site and return ``(new_index, changed_sites)``.

        ``changed_sites`` contains every site whose neighbour set changed
        (the new site included).  The update is O(affected cells) via the
        live Delaunay dual; without one, or when the dual cannot take the
        site, the diagram is rebuilt and ``changed_sites`` is every active
        site.  ``hint`` is the site nearest to ``point``, where the dual
        looks for the first triangle the new site invalidates (any site
        near ``point`` still works; a far one costs a longer search).
        """
        index = len(self._sites)
        changed = None
        if self._delaunay is not None:
            try:
                _, changed = self._delaunay.insert_site(point, hint=hint)
            except GeometryError:
                pass
        self._sites.append(point)
        self._active.append(True)
        self._active_count += 1
        return index, self._rebuild() if changed is None else changed

    def remove_site(self, index: int) -> Set[int]:
        """Remove a site and return the set of sites whose neighbours changed.

        The site keeps its index as a tombstone; :meth:`neighbors_of` raises
        for it afterwards.  The last remaining active
        site cannot be removed.  A convex-hull site costs O(affected cells)
        like an interior one; only a removal that leaves fewer than three or
        only collinear sites rebuilds (and reports) every active site.
        """
        if not self.is_active(index):
            raise GeometryError(f"site {index} does not exist (or was removed)")
        if len(self) <= 1:
            raise GeometryError("cannot remove the last remaining site")
        changed = None
        if self._delaunay is not None:
            try:
                changed = self._delaunay.remove_site(index)
            except GeometryError:
                pass
        self._active[index] = False
        self._active_count -= 1
        return self._rebuild() if changed is None else changed

    def add_tombstone(self, point: Point) -> int:
        """Register ``point`` under the next index as a tombstone (see ``active``)."""
        self._sites.append(point)
        self._active.append(False)
        if self._delaunay is not None:
            self._delaunay.add_tombstone(point)
        return len(self._sites) - 1

    def _build(self) -> None:
        """The live dual over the active sites, or the chain map without one."""
        self._delaunay = self._neighbors = None
        try:
            self._delaunay = DelaunayTriangulation(self._sites, active=self._active)
        except GeometryError:
            # Fewer than three or collinear sites: the chain.  Any other
            # failure re-raises from the wrapper.
            active = self.active_site_indexes()
            local = delaunay_neighbors([self._sites[i] for i in active])
            self._neighbors = {
                active[index]: {active[neighbor] for neighbor in neighbors}
                for index, neighbors in local.items()
            }

    def _rebuild(self) -> Set[int]:
        """A from-scratch rebuild after construction; every active site changed."""
        _FALLBACK_REBUILDS.inc()
        self._build()
        return set(self.active_site_indexes())


def influential_neighbor_indexes(
    neighbor_map: Mapping[int, Collection[int]], knn_indexes: Iterable[int]
) -> Set[int]:
    """The influential neighbour set of a kNN set, as index sets.

    Implements Definition 4 of the paper on top of a precomputed Voronoi
    neighbour map: the union of the order-1 Voronoi neighbour sets of the
    kNN members, minus the kNN members themselves.

    Args:
        neighbor_map: site index -> its neighbouring site indexes.
        knn_indexes: indexes of the current k nearest neighbours.

    Returns:
        The set of influential neighbour indexes ``I(O')``.
    """
    knn_set = set(knn_indexes)
    result: Set[int] = set()
    for index in knn_set:
        if index not in neighbor_map:
            raise GeometryError(f"unknown site index {index} in kNN set")
        result.update(neighbor_map[index])
    return result - knn_set
