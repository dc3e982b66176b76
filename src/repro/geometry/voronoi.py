"""Order-1 Voronoi diagrams.

The INS algorithm relies on two facts about the order-1 Voronoi diagram of
the data set:

1. the *Voronoi neighbour sets* ``N_O(p)`` can be precomputed and stored with
   little overhead (Definition 3 in the paper), and
2. the union of the neighbour sets of the current kNNs (minus the kNNs) is an
   influential set (Definition 4 / the INS).

This module materialises the diagram from the Delaunay triangulation dual:
Voronoi vertices are triangle circumcenters, Voronoi neighbours are Delaunay
edges, and each site's Voronoi *cell polygon* (clipped to a bounding box) is
computed by half-plane intersection with its neighbours — which is exact for
interior cells and a correct clipped cell for boundary sites.

Data-object updates are **incremental**: :meth:`VoronoiDiagram.insert_site`
and :meth:`VoronoiDiagram.remove_site` consume the delta sets reported by
the live :class:`~repro.geometry.delaunay.DelaunayTriangulation` to patch
the neighbour map and invalidate only the affected cached cell polygons,
instead of rebuilding the whole diagram (which is what every update cost
before).  Removed sites keep their index as tombstones so identifiers held
by callers stay stable.  **Site ids are the dual's vertex ids:** the live
triangulation is built over the whole site list with ``active=`` masking the
tombstones out (they keep their index, are never triangulated, and draw no
jitter), so hints, removals and the ``changed`` sets cross this layer
untranslated and a changed site's neighbour set is read off the dual once.
Convex-hull sites are patched like any other.  Only
degenerate configurations (fewer than three active sites, collinear sites,
numerical failures) fall back to a full refresh of the neighbour map — the
slow path ``insq_index_rebuilds_total{reason=geometry_error}`` counts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import EmptyDatasetError, GeometryError
from repro.geometry.delaunay import DelaunayTriangulation, delaunay_neighbors
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon, bisector_halfplane
from repro.geometry.primitives import BoundingBox
from repro.obs.metrics import counter as _obs_counter

_FALLBACK_REBUILDS = _obs_counter("insq_index_rebuilds_total", reason="geometry_error")


class VoronoiDiagram:
    """Order-1 Voronoi diagram over a list of sites.

    Args:
        sites: the generator points.  Sites are referred to by their index in
            this list throughout the library.
        bounding_box: optional clipping box for cell polygons.  When omitted,
            a box 3x the extent of the sites is used, which is enough for the
            demo rendering and the safe-region polygons of interior cells.
            The box grows lazily: a site inserted outside it re-derives the
            box from the new extent (and invalidates the cached cell
            polygons), so far-outside inserts no longer get over-clipped
            cells.
        maintain_incrementally: when True the live Delaunay dual is built
            eagerly, so the same triangulation serves both the initial
            neighbour map and later :meth:`insert_site` /
            :meth:`remove_site` patches — pass it when updates are coming
            (the VoR-tree does).  The default (False) suits throwaway,
            rarely-updated diagrams: the neighbour map comes from the
            cheaper convenience wrapper and the live dual is only built if
            an incremental update arrives after all.
        active: which of ``sites`` exist (default: all).  A masked site is
            a tombstone from the start, so a caller whose ids include points
            that are no sites shares its ids with the diagram and the dual.

    The neighbour relation (:meth:`neighbors_of`) is derived from the
    Delaunay dual and never depends on the clipping box.
    """

    def __init__(
        self,
        sites: Sequence[Point],
        bounding_box: Optional[BoundingBox] = None,
        maintain_incrementally: bool = False,
        active: Optional[Sequence[bool]] = None,
    ):
        self._sites: List[Point] = list(sites)
        self._active: List[bool] = [True] * len(self._sites) if active is None else list(active)
        self._active_count = sum(self._active)
        if not self._active_count:
            raise EmptyDatasetError("a Voronoi diagram requires at least one site")
        if len(self._active) != len(self._sites):
            raise GeometryError("the active mask must cover every site")
        self._bounding_box = bounding_box or self._box_around()
        self._cell_cache: Dict[int, ConvexPolygon] = {}
        # Live Delaunay dual; None for degenerate inputs (and for throwaway
        # diagrams until an incremental update arrives).
        self._delaunay: Optional[DelaunayTriangulation] = None
        self._neighbors: Dict[int, Set[int]] = {}
        if not (maintain_incrementally and self._ensure_live()):
            self._neighbors = self._neighbors_from_scratch()

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if "_site_to_vertex" in state:
            # Pickled when the dual numbered its own vertices: both maps and
            # that dual go; the next update rebuilds it from the sites.
            del self._site_to_vertex, self._vertex_to_site
            self._delaunay = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def sites(self) -> List[Point]:
        """The generator points, in index order (tombstones included)."""
        return list(self._sites)

    @property
    def bounding_box(self) -> BoundingBox:
        """The clipping box used for cell polygons."""
        return self._bounding_box

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

        This is the precomputed neighbour set ``N_O(p_index)`` of the paper.
        """
        if not self.is_active(index):
            raise GeometryError(f"site {index} does not exist (or was removed)")
        return set(self._neighbors[index])

    def neighbor_view(self, index: int) -> Set[int]:
        """The live neighbour set of site ``index`` — no defensive copy.

        Returns the diagram's own set object; callers must treat it as
        read-only and must not hold it across mutations.  This is the
        allocation-free variant of :meth:`neighbors_of` for hot update
        paths (the VoR-tree re-derives one neighbour list per changed site
        per epoch, and copying each set first was a measurable share of
        the maintenance cost).
        """
        if not self.is_active(index):
            raise GeometryError(f"site {index} does not exist (or was removed)")
        return self._neighbors[index]

    def neighbor_map(self) -> Dict[int, Set[int]]:
        """A copy of the full site -> neighbour-set mapping (active sites)."""
        return {index: set(neighbors) for index, neighbors in self._neighbors.items()}

    def are_neighbors(self, first: int, second: int) -> bool:
        """True when the two sites' Voronoi cells share an edge."""
        if not self.is_active(first) or not self.is_active(second):
            raise GeometryError("both sites must exist (and not be removed)")
        return second in self._neighbors[first]

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def insert_site(self, point: Point, hint: Optional[int] = None) -> Tuple[int, Set[int]]:
        """Add a site and return ``(new_index, changed_sites)``.

        ``changed_sites`` contains every site whose neighbour set changed
        (the new site included); only those sites' cached cell polygons are
        invalidated.  The patch is O(affected cells) via the live Delaunay
        dual; degenerate configurations fall back to a full refresh (in
        which case ``changed_sites`` is every active site).  ``hint`` is a
        site near ``point`` where the dual starts its point-location walk.

        A site landing outside the clipping box grows the box to cover it
        (plus the usual margin) and drops every cached cell polygon, since
        boundary cells clip differently against the larger box.  The
        neighbour relation never depends on the box.
        """
        if not self._bounding_box.contains_point(point):
            self._bounding_box = self._box_around(point)
            self._cell_cache.clear()
        rebuilt = self._delaunay is None and self._ensure_live()
        if self._delaunay is None:
            index = self._append_site(point)
            self._refresh_all()
            return index, set(self._neighbors)
        try:
            _, changed = self._delaunay.insert_site(point, hint=hint)
        except GeometryError:
            self._delaunay = None
            index = self._append_site(point)
            self._refresh_all()
            return index, set(self._neighbors)
        index = self._append_site(point)
        self._patch_from_live(changed)
        if rebuilt:
            changed = set(self._neighbors)
        return index, changed

    def remove_site(self, index: int) -> Set[int]:
        """Remove a site and return the set of sites whose neighbours changed.

        The site keeps its index as a tombstone; :meth:`neighbors_of` and
        :meth:`cell` raise for it afterwards.  The last remaining active
        site cannot be removed.  A convex-hull site costs O(affected cells)
        like an interior one; only a removal that leaves fewer than three or
        only collinear sites refreshes (and reports) every active site.
        """
        if not self.is_active(index):
            raise GeometryError(f"site {index} does not exist (or was removed)")
        if len(self) <= 1:
            raise GeometryError("cannot remove the last remaining site")
        rebuilt = self._delaunay is None and self._ensure_live()
        if self._delaunay is None:
            self._deactivate(index)
            self._refresh_all()
            return set(self._neighbors)
        try:
            changed = self._delaunay.remove_site(index)
        except GeometryError:
            self._delaunay = None
            self._deactivate(index)
            self._refresh_all()
            return set(self._neighbors)
        self._deactivate(index)
        self._patch_from_live(changed)
        if rebuilt:
            changed = set(self._neighbors)
        return changed

    def add_tombstone(self, point: Point) -> int:
        """Register ``point`` under the next index as a tombstone (see ``active``)."""
        index = self._append_site(point)
        self._deactivate(index)
        if self._delaunay is not None:
            self._delaunay.add_tombstone(point)
        return index

    def _append_site(self, point: Point) -> int:
        index = len(self._sites)
        self._sites.append(point)
        self._active.append(True)
        self._active_count += 1
        return index

    def _deactivate(self, index: int) -> None:
        self._active[index] = False
        self._active_count -= 1
        self._neighbors.pop(index, None)
        self._cell_cache.pop(index, None)

    def _ensure_live(self) -> bool:
        """Build the live Delaunay dual (once); False when degenerate.

        On success the neighbour map is re-derived from the live structure
        so that subsequent local patches compose with a consistent base.
        """
        if self._delaunay is not None:
            return True
        if self._active_count < 3:
            return False
        try:
            live = DelaunayTriangulation(self._sites, active=self._active)
        except GeometryError:
            return False
        self._delaunay = live
        self._neighbors = live.neighbors()
        self._cell_cache.clear()
        return True

    def _patch_from_live(self, changed: Iterable[int]) -> None:
        """Re-derive the neighbour sets of the changed sites from the dual."""
        for site in changed:
            self._neighbors[site] = self._delaunay.neighbors_of(site)
            self._cell_cache.pop(site, None)

    def _refresh_all(self) -> None:
        """Full neighbour-map rebuild (the degenerate-geometry fallback)."""
        _FALLBACK_REBUILDS.inc()
        self._neighbors = self._neighbors_from_scratch()
        self._cell_cache.clear()

    def _neighbors_from_scratch(self) -> Dict[int, Set[int]]:
        """The neighbour map of the active sites by the convenience wrapper."""
        active = self.active_site_indexes()
        local = delaunay_neighbors([self._sites[i] for i in active])
        return {
            active[index]: {active[neighbor] for neighbor in neighbors}
            for index, neighbors in local.items()
        }

    # ------------------------------------------------------------------
    # Cells and point location
    # ------------------------------------------------------------------
    def cell(self, index: int) -> ConvexPolygon:
        """The (clipped) Voronoi cell polygon of site ``index``.

        The cell is the intersection of the bounding box with the bisector
        half-planes against the site's Voronoi neighbours.  For sites whose
        true cell is bounded this equals the exact cell (as long as the
        bounding box contains it); for hull sites it is the cell clipped to
        the box.
        """
        if not self.is_active(index):
            raise GeometryError(f"site {index} does not exist (or was removed)")
        if index not in self._cell_cache:
            site = self._sites[index]
            polygon = ConvexPolygon.from_bounding_box(self._bounding_box)
            halfplanes = [
                bisector_halfplane(site, self._sites[neighbor])
                for neighbor in sorted(self._neighbors[index])
            ]
            self._cell_cache[index] = polygon.clip_halfplanes(halfplanes)
        return self._cell_cache[index]

    def nearest_site(self, query: Point) -> int:
        """Index of the active site nearest to ``query`` (linear scan)."""
        return min(
            self.active_site_indexes(),
            key=lambda i: self._sites[i].distance_squared_to(query),
        )

    def locate(self, query: Point) -> int:
        """Index of the Voronoi cell containing ``query``.

        Equivalent to :meth:`nearest_site`; provided for readability at call
        sites that think in terms of point location.
        """
        return self.nearest_site(query)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _box_around(self, *extra: Point) -> BoundingBox:
        """The active sites' and ``extra``'s extent, grown by its own size."""
        tight = BoundingBox.from_points([*map(self.site, self.active_site_indexes()), *extra])
        return tight.expanded(max(tight.width, tight.height, 1.0))


def influential_neighbor_indexes(
    neighbor_map: Mapping[int, Set[int]], knn_indexes: Iterable[int]
) -> Set[int]:
    """The influential neighbour set of a kNN set, as index sets.

    Implements Definition 4 of the paper on top of a precomputed Voronoi
    neighbour map: the union of the order-1 Voronoi neighbour sets of the
    kNN members, minus the kNN members themselves.

    Args:
        neighbor_map: site index -> set of neighbouring site indexes.
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
