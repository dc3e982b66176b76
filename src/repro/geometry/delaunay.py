"""Incremental Delaunay triangulation (Bowyer–Watson over per-vertex link maps).

The INS algorithm needs, for every data object, the list of its order-1
Voronoi neighbours.  The dual of the Delaunay triangulation gives exactly
that: two objects are Voronoi neighbours if and only if they share a Delaunay
edge (up to degenerate cocircular configurations, which the builder perturbs
away).

**The link maps.**  The triangulation is a directed-edge map to apexes
(Shewchuk, *Lecture Notes on Delaunay Mesh Generation*, ch. 3) stored one
row per vertex: every counter-clockwise triangle ``(a, b, c)`` is the three
entries ``apex[a][b] = c``, ``apex[b][c] = a``, ``apex[c][a] = b``.  The
triangle across an edge is one lookup of the reversed pair, and the row
``apex[v]`` is the link of ``v``: its keys are ``v``'s neighbours, the
adjacency of the point-location walk and the star searched for a first bad
triangle; rotating ``w = apex[v][w]`` from any key lists them
counter-clockwise, the boundary of a deletion's hole.  The row is also
``v``'s neighbour list: no second copy of the adjacency is kept, and no
neighbour read turns a ring.  Only a hull site's row holds :data:`GHOST`; its
list is a ghost-free frozenset built when it is read.

**One ghost rule.**  Instead of the classic bounding "super triangle"
(whose finite corner coordinates silently *drop* hull edges whose empty
witness circles are large), the unbounded face is fanned from the vertex
:data:`GHOST`: a convex-hull edge ``u -> v`` (interior on its left) carries
the triangle ``(v, u, GHOST)``, whose "circumcircle" is the open half-plane
strictly to the right of ``u -> v``.  The structure is therefore a
triangulated *sphere*: every directed edge has its twin, ghost triangles are
oriented like any other, and insertions outside the hull or deletions on it
need no special casing.  The real part is exactly the Delaunay triangulation
of the sites — identical to what an offline rebuild computes.

**One construction.**  The build inserts the live sites one by one with the
same cavity machinery the live updates use, in Hilbert-curve order
(:func:`_hilbert_order`; Amenta, Choi & Rote, "Incremental constructions con
BRIO", SoCG 2003): consecutive sites are close, so each point-location walk
starts next to its target and the whole build is near-linear.

The triangulation is kept *live* after construction so that data-object
updates stay local:

* :meth:`DelaunayTriangulation.insert_site` walks greedily over the links —
  O(1) steps from a caller-supplied ``hint`` near the new site (the VoR-tree
  passes the nearest object its jump-and-walk finds), expected O(sqrt(n))
  from the last-inserted site otherwise — to the nearest vertex, takes the
  first bad triangle of its star as the seed and floods from it with a stack of
  *cavity-side* directed edges ``(u, v)``.  The triangle across is
  ``(v, u, apex[v][u])``; it joins the cavity iff it is bad **and its apex
  is not already a cavity vertex**, otherwise ``(u, v)`` is a rim edge and
  gets the new triangle ``(u, v, new)``.  The second condition is free on
  valid input: a Bowyer–Watson cavity is a disc with every vertex on its
  rim, so its dual is a *tree* — each further triangle is entered through
  exactly one edge and brings exactly one new vertex — and the rule accepts
  exactly the bad set.  Where the in-circle predicate is noise (three or
  more sites within the jitter of each other) it still grows a disc, one
  triangle glued along one edge at a time, so the structure stays a sphere.
* :meth:`DelaunayTriangulation.remove_site` deletes one site, interior or on
  the convex hull: its link is the hole, re-triangulated by Delaunay ear
  clipping (O(h^3) for a hole of h boundary vertices; h is ~6 on average).
  A hull site's link passes through :data:`GHOST`, and an ear containing it
  is the ghost triangle of a new hull edge.

**Validation before mutation.**  Both mutators decide everything — the
cavity and its rim, or the hole's replacement triangles, including that no
diagonal of the replacement already exists outside the hole — before the
first entry of the map changes.  A :class:`GeometryError` (no bad triangle,
fewer than three or only collinear sites left, a hole that ear clipping
cannot close) therefore always means *nothing was mutated*, and callers
fall back to a full rebuild.  Both return the sites whose neighbour lists
changed — the vertices of the removed triangles plus the new site on insert,
the link on delete.  Every row whose keys change belongs to one of them, so a
reader that re-reads the changed sites (:meth:`DelaunayTriangulation.neighbor_sets`)
holds every list current: an interior site's list is its live row, which is
:class:`~repro.index.vortree.VoRTree`'s list too.

**Why the representation cannot move an answer.**  The Delaunay
triangulation of the *jittered* points is unique whenever no four of them
are co-circular, which is what the jitter is for.  The predicates, their
argument order on hull edges, the jitter's magnitude and its draw order (one
pair per active point at construction, one per insert) do not depend on how
triangles are stored, and neither do the two ``changed`` rules above.  Same
triangulation, same neighbour sets, same deltas upstream.

A note on exactly-degenerate inputs (regular grids, cocircular rings):
the builder breaks ties with a tiny deterministic jitter, so the reported
adjacency is the exact Delaunay triangulation of the *perturbed* copies —
verified to match Qhull on the same perturbed coordinates.  Which of the
tie edges survive therefore depends on the perturbation draw: two
structures that absorbed the same sites along different histories (e.g. an
incrementally-maintained tree vs. a from-scratch rebuild) may legitimately
disagree on degenerate tie edges while both being valid triangulations.
Collinearity is the one degeneracy the jitter never decides: it is judged
on the unperturbed sites, at construction as on removal, and an all-collinear
set is refused — its Voronoi neighbours are the chain along the line
(:func:`delaunay_neighbors`), not a triangulation of the jittered copies.
Randomly distributed sites — every workload in this repository — have no
ties, and there the adjacency is unambiguous.
"""

from __future__ import annotations

import random
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.objects import immutable
from repro.errors import GeometryError
from repro.geometry.point import Point, bounding_coordinates
from repro.geometry.predicates import EPSILON, orientation

Edge = FrozenSet[int]

#: Index of the synthetic vertex "at infinity" used by ghost triangles.
GHOST = -1


@immutable
class Triangle:
    """A real triangle of the triangulation, referring to point indexes.

    The vertex indexes are stored counter-clockwise, smallest first.
    """

    a: int
    b: int
    c: int

    def vertices(self) -> Tuple[int, int, int]:
        """The three vertex indexes."""
        return (self.a, self.b, self.c)


class DelaunayTriangulation:
    """Delaunay triangulation of a finite point set, maintained incrementally.

    Args:
        points: the sites to triangulate.  At least three non-collinear
            active points are required.
        jitter: magnitude of the deterministic perturbation applied to break
            exact ties (cocircular / collinear configurations).  The jitter is
            applied only to the copies used internally; the coordinates
            reported back to callers are the original ones.
        seed: seed of the pseudo-random generator used for the perturbation.
        active: which of ``points`` exist (default: all of them).  A masked
            point is a tombstone: it keeps its index, is never triangulated
            and is neither perturbed nor counted in the jitter scale, so the
            triangulation is the one a build over the active points alone
            makes — reported in the caller's indexes.

    Raises:
        GeometryError: for fewer than three active points or an
            all-collinear input.
    """

    def __init__(
        self,
        points: Sequence[Point],
        jitter: float = 1e-9,
        seed: int = 97,
        active: Optional[Sequence[bool]] = None,
    ):
        self._active: List[bool] = [True] * len(points) if active is None else list(active)
        if len(self._active) != len(points):
            raise GeometryError("the active mask must cover every point")
        live = self.active_indexes()
        if len(live) < 3:
            raise GeometryError("Delaunay triangulation requires at least 3 points")
        if _all_points_collinear([points[index] for index in live]):
            raise GeometryError("Delaunay triangulation requires non-collinear points")
        self._original_points: List[Point] = list(points)
        self._rng = random.Random(seed)
        self._jitter_magnitude = self._jitter_scale(jitter, live)
        self._points: List[Point] = list(points)
        for index in live:
            self._points[index] = self._perturb(points[index])
        #: Vertex u (GHOST included) -> its link map: neighbour v -> the apex
        #: of the counter-clockwise triangle on the left of u -> v.
        self._apex: Dict[int, Dict[int, int]] = {}
        self._vertex_count = len(live)
        order = _hilbert_order(self._points, live)
        self._walk_hint = order[0]
        self._build(order)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def points(self) -> List[Point]:
        """The original (unperturbed) input points, including removed sites."""
        return list(self._original_points)

    @property
    def triangles(self) -> List[Triangle]:
        """All triangles of the triangulation (ghost triangles removed)."""
        return sorted(
            (
                Triangle(a, b, c)
                for a, row in self._apex.items()
                if a >= 0
                for b, c in row.items()
                if a < b and a < c
            ),
            key=Triangle.vertices,
        )

    def is_active(self, index: int) -> bool:
        """True when site ``index`` exists and has not been removed."""
        return 0 <= index < len(self._points) and self._active[index]

    def active_indexes(self) -> List[int]:
        """Indexes of the sites currently present in the triangulation."""
        return [index for index, active in enumerate(self._active) if active]

    def edges(self) -> Set[Edge]:
        """All undirected Delaunay edges as frozensets of point indexes."""
        return {frozenset((a, b)) for a, row in self._apex.items() if a >= 0 for b in row if a < b}

    def edge_map(self) -> Dict[Tuple[int, int], int]:
        """A copy of the whole structure: directed edge -> apex, ghosts included."""
        return {(a, b): c for a, row in self._apex.items() for b, c in row.items()}

    def neighbors(self) -> Dict[int, Set[int]]:
        """Adjacency map: point index -> indexes of Delaunay-adjacent points.

        This is exactly the order-1 Voronoi neighbour relation used by the
        INS algorithm, copied from the rows in index order.  Removed sites
        do not appear, neither as keys nor as values.
        """
        return {index: self.neighbors_of(index) for index in self.active_indexes()}

    def neighbors_of(self, index: int) -> Set[int]:
        """Delaunay-adjacent site indexes of one site (a copy of its row's keys)."""
        if not self.is_active(index):
            raise GeometryError(f"site {index} does not exist (or was removed)")
        neighbors = set(self._apex[index])
        neighbors.discard(GHOST)
        return neighbors

    def neighbor_sets(self, sites: Iterable[int]) -> Dict[int, Collection[int]]:
        """Each active site of ``sites`` -> its neighbours, read without a copy.

        An interior site's list is its link row itself: its keys are the
        neighbours, edited in place by later mutations (callers must not
        mutate it, and a caller keeping it re-reads the site whenever a
        mutation reports it changed).  A hull site's row holds :data:`GHOST`,
        so its list is a ghost-free frozenset, current until the site changes.
        """
        apex = self._apex
        lists: Dict[int, Collection[int]] = {}
        for site in sites:
            row = apex[site]
            lists[site] = frozenset(row).difference((GHOST,)) if GHOST in row else row
        return lists

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def insert_site(self, point: Point, hint: Optional[int] = None) -> Tuple[int, Set[int]]:
        """Insert one site and return ``(new_index, changed_sites)``.

        ``changed_sites`` contains every surviving site whose Delaunay (and
        therefore Voronoi) neighbour set may have changed, the new site
        included.  The cost is O(walk + cavity size), not O(n).  ``hint``,
        when active, is taken for the site nearest to ``point`` (the
        VoR-tree's own walk found it): its star is searched for the first
        bad triangle and no second walk runs.  A hint whose star holds none
        falls back to the walk, started there.  The cavity is unique, so the
        result is the same.

        Raises:
            GeometryError: when no cavity can be located; nothing has been
                mutated then, and the caller should fall back to a full
                rebuild.
        """
        perturbed = self._perturb(point)
        index = len(self._points)
        if hint is not None and self.is_active(hint):
            self._walk_hint = hint
        else:
            hint = None
        changed = self._carve_cavity(index, perturbed, hint)
        self._original_points.append(point)
        self._points.append(perturbed)
        self._active.append(True)
        self._vertex_count += 1
        return index, changed

    def add_tombstone(self, point: Point) -> int:
        """Register ``point`` under the next index as a tombstone (see ``active``)."""
        self._original_points.append(point)
        self._points.append(point)
        self._active.append(False)
        return len(self._points) - 1

    def remove_site(self, index: int) -> Set[int]:
        """Remove one site; returns the sites whose neighbours changed.

        The site keeps its index (so that identifiers held by callers stay
        stable) but no longer appears in the triangulation.  The cost is
        O(h^3) for a star of h boundary vertices — independent of n, for
        hull sites as for interior ones.

        Raises:
            GeometryError: for an unknown / already-removed site, when
                fewer than three sites or only collinear sites would
                remain, or when the hole cannot be re-triangulated
                (degenerate numerics).  Nothing has been mutated then;
                callers are expected to fall back to a full rebuild.
        """
        if not self.is_active(index):
            raise GeometryError(f"site {index} does not exist (or was removed)")
        if self._vertex_count <= 3:
            raise GeometryError("fewer than 3 sites would remain")
        hole = self._link(index)
        link = [vertex for vertex in hole if vertex >= 0]
        # Only the apex of a fan over collinear sites is adjacent to every
        # other site *and* leaves a collinear remainder.
        if len(link) == self._vertex_count - 1 and _all_points_collinear(
            [self._original_points[vertex] for vertex in link]
        ):
            raise GeometryError("only collinear sites would remain")
        replacement = self._retriangulate_hole(hole)
        apex = self._apex
        del apex[index]
        for vertex in hole:
            del apex[vertex][index]
        # Each hole edge u -> v keeps its key and takes its replacement apex.
        for a, b, c in replacement:
            apex[a][b] = c
            apex[b][c] = a
            apex[c][a] = b
        self._active[index] = False
        self._vertex_count -= 1
        if self._walk_hint == index:
            self._walk_hint = link[0]
        return set(link)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _jitter_scale(self, jitter: float, live: Sequence[int]) -> float:
        if jitter <= 0:
            return 0.0
        min_x, min_y, max_x, max_y = bounding_coordinates(
            [self._original_points[index] for index in live]
        )
        return jitter * max(max_x - min_x, max_y - min_y, 1.0)

    def _perturb(self, point: Point) -> Point:
        if self._jitter_magnitude <= 0:
            return point
        return Point(
            point.x + (self._rng.random() - 0.5) * self._jitter_magnitude,
            point.y + (self._rng.random() - 0.5) * self._jitter_magnitude,
        )

    def _build(self, order: Sequence[int]) -> None:
        """Bootstrap with the first non-degenerate triple of ``order``, then
        insert every other site in that order with the same cavity machinery
        the live updates use (ghost triangles make out-of-hull insertions
        uniform)."""
        points = self._points
        first = order[0]
        second = next(
            (i for i in order[1:] if not points[i].almost_equal(points[first])), None
        )
        third = None
        if second is not None:
            third = next(
                (
                    i
                    for i in order[1:]
                    if i != second
                    and orientation(points[first], points[second], points[i]) != 0
                ),
                None,
            )
        if second is None or third is None:
            raise GeometryError("Delaunay triangulation requires non-collinear points")
        if orientation(points[first], points[second], points[third]) < 0:
            second, third = third, second
        # The triangle (first, second, third) and the ghost triangle
        # (v, u, GHOST) of each of its edges u -> v: a sphere.
        ghost = self._apex[GHOST] = {}
        for a, b, c in ((first, second, third), (second, third, first), (third, first, second)):
            self._apex[a] = {b: c, c: GHOST, GHOST: b}
            ghost[b] = a
        for index in order[1:]:
            if index not in (second, third):
                self._carve_cavity(index, points[index])

    # ------------------------------------------------------------------
    # The link maps: rings, the bad-triangle predicate, point location
    # ------------------------------------------------------------------
    def _link(self, vertex: int) -> List[int]:
        """The neighbours of ``vertex`` counter-clockwise, :data:`GHOST` included."""
        row = self._apex[vertex]
        start = next(iter(row))
        ring = [start]
        following = row[start]
        while following != start:
            ring.append(following)
            following = row[following]
        return ring

    def _circumcircle_contains(self, a: int, b: int, c: int, point: Point) -> bool:
        """The Bowyer–Watson "bad triangle" predicate, ghost-aware.

        For a real counter-clockwise triangle ``(a, b, c)`` this is the
        standard in-circle test.  For the ghost triangle ``(v, u, GHOST)``
        of hull edge ``u -> v`` (in any rotation), the "circumcircle" is the
        open half-plane strictly to the right of the edge, plus the open
        edge itself — the limit of the circumcircle as the ghost vertex
        recedes to infinity.
        """
        if a < 0:
            a, b, c = b, c, a
        elif b < 0:
            a, b, c = c, a, b
        points = self._points
        if c >= 0:
            # predicates.in_circumcircle(a, b, c, point) > 0, inlined: it is
            # the build's hottest call.
            pa = points[a]
            pb = points[b]
            pc = points[c]
            px = point.x
            py = point.y
            adx = pa.x - px
            ady = pa.y - py
            bdx = pb.x - px
            bdy = pb.y - py
            cdx = pc.x - px
            cdy = pc.y - py
            ad = adx * adx + ady * ady
            bd = bdx * bdx + bdy * bdy
            cd = cdx * cdx + cdy * cdy
            return (
                adx * (bdy * cd - bd * cdy)
                - ady * (bdx * cd - bd * cdx)
                + ad * (bdx * cdy - bdy * cdx)
            ) > 0.0
        pu = points[b]
        pv = points[a]
        side = orientation(pu, pv, point)
        if side < 0:
            return True
        if side > 0:
            return False
        # Collinear with the hull edge: inside only strictly between u and v.
        dx = pv.x - pu.x
        dy = pv.y - pu.y
        projection = (point.x - pu.x) * dx + (point.y - pu.y) * dy
        return 0.0 < projection < dx * dx + dy * dy

    def _nearest_vertex(self, point: Point) -> int:
        """Greedy descent over the Delaunay graph towards ``point``.

        On a Delaunay triangulation, some neighbour of any non-nearest
        vertex is strictly closer to the target, so the walk terminates at
        the site nearest to ``point``.
        """
        apex = self._apex
        points = self._points
        px = point.x
        py = point.y
        best = self._walk_hint
        best_distance = points[best].distance_squared_to(point)
        while True:
            current = best
            for neighbor in apex[current]:
                if neighbor < 0:
                    continue
                # Point.distance_squared_to, inlined.
                site = points[neighbor]
                dx = site.x - px
                dy = site.y - py
                distance = dx * dx + dy * dy
                if distance < best_distance:
                    best = neighbor
                    best_distance = distance
            if best == current:
                return current

    def _seed_edge(self, point: Point, nearest: Optional[int]) -> Tuple[int, int]:
        """A directed edge whose triangle's circumcircle contains ``point``.

        The first bad triangle of the star of ``nearest``, a caller's
        nearest site, else of the walk's nearest vertex (the nearest site
        to a new point is always a vertex of its cavity); the rare
        numerical fallback scans the whole map.
        """
        apex = self._apex
        for start in (None,) if nearest is None else (nearest, None):
            if start is None:
                start = self._nearest_vertex(point)
            for neighbor, third in apex[start].items():
                if self._circumcircle_contains(start, neighbor, third, point):
                    return start, neighbor
        for a, row in apex.items():
            for b, c in row.items():
                if self._circumcircle_contains(a, b, c, point):
                    return a, b
        raise GeometryError("no triangle circumcircle contains the new site")

    def _carve_cavity(self, index: int, point: Point, nearest: Optional[int] = None) -> Set[int]:
        """Carve the Bowyer–Watson cavity of ``point`` and fill it around ``index``.

        Returns the set of real sites whose neighbour lists may have changed
        (all vertices of removed triangles plus the new site).  The caller
        is responsible for registering ``point`` under ``index`` afterwards.
        ``nearest`` is the caller's nearest site, if it knows it.
        The cavity is edge-connected (ghost triangles included), so one bad
        seed triangle and a flood over its edges enumerate it without
        scanning the map; see the module docstring for the apex rule.
        """
        apex = self._apex
        contains = self._circumcircle_contains
        a, b = self._seed_edge(point, nearest)
        c = apex[a][b]
        inside = {a, b, c}
        cavity = [(a, b), (b, c), (c, a)]
        stack = list(cavity)
        rim: List[Tuple[int, int]] = []
        while stack:
            u, v = stack.pop()
            w = apex[v][u]
            if w not in inside and contains(v, u, w, point):
                inside.add(w)
                cavity += ((v, u), (u, w), (w, v))
                stack += ((u, w), (w, v))
            else:
                rim.append((u, v))
        # Every decision is made; only now does the map change.
        for u, v in cavity:
            del apex[u][v]
        apex[index] = row = {}
        for u, v in rim:
            apex[u][v] = index
            apex[v][index] = u
            row[u] = v
        self._walk_hint = index
        inside.discard(GHOST)
        inside.add(index)
        return inside

    def _retriangulate_hole(self, hole: Sequence[int]) -> List[Tuple[int, int, int]]:
        """Delaunay triangulation of a star-shaped hole via ear clipping.

        ``hole`` is the link of the removed site, counter-clockwise.  An
        "ear" (three consecutive boundary vertices forming a convex corner
        whose circumcircle contains no other boundary vertex) of a
        star-shaped polygon can always be clipped, and doing so repeatedly
        yields the Delaunay triangulation of the hole — which, by locality
        of Delaunay deletion, is also globally Delaunay.  On a hull site's
        hole an ear containing :data:`GHOST` is a ghost triangle, whose
        "circumcircle" is the half-plane beyond the new hull edge (see
        :meth:`_circumcircle_contains`); the ghost lies in no circumcircle.
        A real ear is tested inline: the floats of ``orientation`` and of
        :meth:`_circumcircle_contains`'s in-circle test, operand for operand.

        Raises:
            GeometryError: when no ear can be clipped, or when a diagonal
                of the replacement already exists outside the hole (the
                result would not be a sphere).  Nothing is mutated here.
        """
        points = self._points
        contains = self._circumcircle_contains
        xy = {v: (points[v].x, points[v].y) for v in hole if v >= 0}
        polygon = list(hole)
        result: List[Tuple[int, int, int]] = []
        while len(polygon) > 3:
            size = len(polygon)
            for i in range(size):
                a = polygon[i - 1]
                b = polygon[i]
                c = polygon[(i + 1) % size]
                if a < 0 or b < 0 or c < 0:
                    if any(
                        v >= 0 and v not in (a, b, c) and contains(a, b, c, points[v])
                        for v in polygon
                    ):
                        continue
                else:
                    ax, ay = xy[a]
                    bx, by = xy[b]
                    cx, cy = xy[c]
                    scale = max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy), 1.0)
                    if not (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > EPSILON * scale:
                        continue
                    encroached = False
                    for v in polygon:
                        if v < 0 or v == a or v == b or v == c:
                            continue
                        px, py = xy[v]
                        adx = ax - px
                        ady = ay - py
                        bdx = bx - px
                        bdy = by - py
                        cdx = cx - px
                        cdy = cy - py
                        ad = adx * adx + ady * ady
                        bd = bdx * bdx + bdy * bdy
                        cd = cdx * cdx + cdy * cdy
                        if (
                            adx * (bdy * cd - bd * cdy)
                            - ady * (bdx * cd - bd * cdx)
                            + ad * (bdx * cdy - bdy * cdx)
                        ) > 0.0:
                            encroached = True
                            break
                    if encroached:
                        continue
                # a and c are not consecutive on the link (size > 3), so an
                # existing edge between them lies outside the hole.
                if c in self._apex[a]:
                    raise GeometryError("a diagonal of the deletion hole already exists")
                result.append((a, b, c))
                polygon.pop(i)
                break
            else:
                raise GeometryError("could not re-triangulate the deletion hole")
        result.append(tuple(polygon))
        return result


def _all_points_collinear(points: Sequence[Point], tolerance: float = 1e-9) -> bool:
    """True when every point lies (nearly) on one straight line."""
    base_a = points[0]
    base_b = next((p for p in points[1:] if not p.almost_equal(base_a)), None)
    if base_b is None:
        return True
    return all(orientation(base_a, base_b, p, tolerance) == 0 for p in points)


#: Cells per axis of the Hilbert grid (10 bits per coordinate).
_HILBERT_SIDE = 1 << 10


def _hilbert_order(points: Sequence[Point], live: Sequence[int]) -> List[int]:
    """``live`` sorted by ``(Hilbert key, index)`` on a 1024 x 1024 grid over
    the sites' bounding square: consecutive sites are spatial neighbours."""
    min_x, min_y, max_x, max_y = bounding_coordinates([points[i] for i in live])
    scale = (_HILBERT_SIDE - 1) / (max(max_x - min_x, max_y - min_y) or 1.0)

    def key(index: int) -> int:
        point = points[index]
        x = int((point.x - min_x) * scale)
        y = int((point.y - min_y) * scale)
        distance = 0
        half = _HILBERT_SIDE >> 1
        while half:
            rx = 1 if x & half else 0
            ry = 1 if y & half else 0
            distance += half * half * ((3 * rx) ^ ry)
            if not ry:
                if rx:
                    x = _HILBERT_SIDE - 1 - x
                    y = _HILBERT_SIDE - 1 - y
                x, y = y, x
            half >>= 1
        return distance

    # ``live`` ascends and the sort is stable, so equal keys keep index order.
    return sorted(live, key=key)


def delaunay_neighbors(points: Sequence[Point]) -> Dict[int, Set[int]]:
    """Convenience wrapper: Voronoi neighbour map of a point set.

    The map is :meth:`DelaunayTriangulation.neighbors` of a build over
    ``points``, so it breaks ties exactly as the live structure does.
    Handles the degenerate cases (fewer than three points, collinear input)
    by falling back to adjacency between consecutive points along the line.
    """
    if not points:
        return {}
    if not _all_points_collinear(points):
        try:
            return DelaunayTriangulation(points).neighbors()
        except GeometryError as error:
            # Only (near-)collinear configurations may take the fallback
            # below — any other construction failure is a genuine
            # geometric/numerical error and silently returning the chain
            # adjacency would corrupt every neighbour list downstream.
            if "collinear" not in str(error):
                raise
    # Voronoi neighbours of collinear sites are consecutive along the line.
    order = sorted(range(len(points)), key=lambda i: (points[i].x, points[i].y))
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(points))}
    for first, second in zip(order, order[1:]):
        adjacency[first].add(second)
        adjacency[second].add(first)
    return adjacency
