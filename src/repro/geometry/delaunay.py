"""Incremental Delaunay triangulation (Bowyer–Watson, ghost-vertex form).

The INS algorithm needs, for every data object, the list of its order-1
Voronoi neighbours.  The dual of the Delaunay triangulation gives exactly
that: two objects are Voronoi neighbours if and only if they share a Delaunay
edge (up to degenerate cocircular configurations, which the builder perturbs
away).

The triangulation is kept *live* after construction so that data-object
updates stay local:

* :meth:`DelaunayTriangulation.insert_site` inserts one site by carving the
  usual Bowyer–Watson cavity.  The cavity is located with a greedy walk over
  the Delaunay graph — O(1) steps from a caller-supplied ``hint`` near the
  new site (the VoR-tree passes its R-tree's nearest object), expected
  O(sqrt(n)) from the last-inserted site otherwise — followed by a flood
  fill through edge-adjacent triangles, so the cost is O(walk + affected
  cells) rather than a scan of all triangles.
* :meth:`DelaunayTriangulation.remove_site` deletes one site, interior or on
  the convex hull, by removing its star and re-triangulating the polygonal
  hole with Delaunay ear clipping (O(h^3) for a hole of h boundary
  vertices; h is ~6 on average).  A hull site's hole has :data:`GHOST` as
  one more boundary vertex, and an ear containing it becomes the ghost
  triangle of a new hull edge.  :class:`GeometryError` is left for true
  degeneracy: fewer than three or only collinear sites would remain.

Both mutators return the set of surviving sites whose Voronoi neighbour
lists (may have) changed, which is what lets
:class:`~repro.geometry.voronoi.VoronoiDiagram` and
:class:`~repro.index.vortree.VoRTree` patch their neighbour maps instead of
rebuilding them from scratch on every data-object update.

Instead of the classic bounding "super triangle" (whose finite corner
coordinates silently *drop* hull edges whose empty witness circles are
large), the unbounded face is triangulated with **ghost triangles**: every
convex-hull edge ``u -> v`` (interior on its left) carries a triangle
``(u, v, GHOST)`` whose "circumcircle" is the open half-plane strictly to
the right of the edge.  With this combinatorial rule the real part of the
structure is exactly the Delaunay triangulation of the sites — identical to
what an offline rebuild (or the accelerated Qhull backend) computes — and
insertions outside the current hull need no special casing.  For large
inputs the initial triangle set is seeded from scipy's Qhull wrapper (when
available) so that building the live structure is cheap.

A note on exactly-degenerate inputs (regular grids, cocircular rings):
the builder breaks ties with a tiny deterministic jitter, so the reported
adjacency is the exact Delaunay triangulation of the *perturbed* copies —
verified to match Qhull on the same perturbed coordinates.  Which of the
tie edges survive therefore depends on the perturbation draw: two
structures that absorbed the same sites along different histories (e.g. an
incrementally-maintained tree vs. a from-scratch rebuild) may legitimately
disagree on degenerate tie edges while both being valid triangulations.
Randomly distributed sites — every workload in this repository — have no
ties, and there the adjacency is unambiguous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import GeometryError
from repro.geometry.point import Point, bounding_coordinates
from repro.geometry.predicates import (
    EPSILON,
    circumcenter,
    in_circumcircle,
    orientation,
)

Edge = FrozenSet[int]

#: Index of the synthetic vertex "at infinity" used by ghost triangles.
GHOST = -1


@dataclass(frozen=True)
class Triangle:
    """A triangle of the triangulation, referring to point indexes.

    The vertex indexes are stored counter-clockwise.  A triangle whose
    vertex is :data:`GHOST` is a *ghost triangle* standing in for the
    unbounded face beyond one convex-hull edge; ghost triangles never appear
    in the triangulation returned to callers.
    """

    a: int
    b: int
    c: int

    def vertices(self) -> Tuple[int, int, int]:
        """The three vertex indexes."""
        return (self.a, self.b, self.c)

    def edges(self) -> Tuple[Edge, Edge, Edge]:
        """The three undirected edges as frozensets of vertex indexes."""
        return (
            frozenset((self.a, self.b)),
            frozenset((self.b, self.c)),
            frozenset((self.c, self.a)),
        )

    def directed_edges(self) -> Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]]:
        """The three directed edges in counter-clockwise cyclic order."""
        return ((self.a, self.b), (self.b, self.c), (self.c, self.a))

    def has_vertex(self, index: int) -> bool:
        """True when ``index`` is one of the triangle's vertices."""
        return index in (self.a, self.b, self.c)

    def is_real(self) -> bool:
        """True when the triangle has no ghost vertex."""
        return self.a >= 0 and self.b >= 0 and self.c >= 0

    def ghost_edge(self) -> Tuple[int, int]:
        """The directed real (hull) edge of a ghost triangle.

        The edge is directed so that the triangulation's interior lies on
        its left.
        """
        if self.a == GHOST:
            return (self.b, self.c)
        if self.b == GHOST:
            return (self.c, self.a)
        return (self.a, self.b)


class DelaunayTriangulation:
    """Delaunay triangulation of a finite point set, maintained incrementally.

    Args:
        points: the sites to triangulate.  At least three non-collinear
            points are required.
        jitter: magnitude of the deterministic perturbation applied to break
            exact ties (cocircular / collinear configurations).  The jitter is
            applied only to the copies used internally; the coordinates
            reported back to callers are the original ones.
        seed: seed of the pseudo-random generator used for the perturbation.
        seed_backend: ``"auto"`` seeds the initial triangle set from scipy's
            Qhull wrapper for large inputs (falling back to the builtin
            construction when scipy is unavailable); ``"builtin"`` always
            uses the from-scratch Bowyer–Watson construction.  Incremental
            maintenance is pure Python either way.

    Raises:
        GeometryError: for fewer than three points or an all-collinear input.
    """

    def __init__(
        self,
        points: Sequence[Point],
        jitter: float = 1e-9,
        seed: int = 97,
        seed_backend: str = "auto",
    ):
        if len(points) < 3:
            raise GeometryError("Delaunay triangulation requires at least 3 points")
        if seed_backend not in ("auto", "builtin"):
            raise GeometryError(f"unknown Delaunay seed backend {seed_backend!r}")
        self._original_points: List[Point] = list(points)
        self._rng = random.Random(seed)
        self._jitter_magnitude = self._jitter_scale(jitter)
        self._points: List[Point] = [self._perturb(p) for p in self._original_points]
        if _all_points_collinear(self._points, EPSILON):
            raise GeometryError("Delaunay triangulation requires non-collinear points")
        self._active: List[bool] = [True] * len(self._points)
        self._triangles: Set[Triangle] = set()
        self._incident: Dict[int, Set[Triangle]] = {}
        self._walk_hint: Optional[int] = None
        # Running centroid of the sites in the triangulation: a point that is
        # strictly interior to the convex hull, used to orient new hull
        # (ghost) edges.
        self._centroid_x = 0.0
        self._centroid_y = 0.0
        self._vertex_count = 0
        self._seed_backend = seed_backend
        self._build()

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
            (t for t in self._triangles if t.is_real()), key=lambda t: t.vertices()
        )

    def is_active(self, index: int) -> bool:
        """True when site ``index`` exists and has not been removed."""
        return 0 <= index < len(self._points) and self._active[index]

    def active_indexes(self) -> List[int]:
        """Indexes of the sites currently present in the triangulation."""
        return [index for index, active in enumerate(self._active) if active]

    def edges(self) -> Set[Edge]:
        """All undirected Delaunay edges as frozensets of point indexes."""
        result: Set[Edge] = set()
        for triangle in self._triangles:
            if triangle.is_real():
                result.update(triangle.edges())
            else:
                result.add(frozenset(triangle.ghost_edge()))
        return result

    def neighbors(self) -> Dict[int, Set[int]]:
        """Adjacency map: point index -> indexes of Delaunay-adjacent points.

        This is exactly the order-1 Voronoi neighbour relation used by the
        INS algorithm.  Removed sites do not appear, neither as keys nor as
        values.
        """
        adjacency: Dict[int, Set[int]] = {
            index: set() for index in range(len(self._points)) if self._active[index]
        }
        for edge in self.edges():
            u, v = tuple(edge)
            adjacency[u].add(v)
            adjacency[v].add(u)
        return adjacency

    def neighbors_of(self, index: int) -> Set[int]:
        """Delaunay-adjacent site indexes of one site (the ghost excluded)."""
        if not self.is_active(index):
            raise GeometryError(f"site {index} does not exist (or was removed)")
        result: Set[int] = set()
        for triangle in self._incident.get(index, ()):
            for vertex in triangle.vertices():
                if vertex >= 0 and vertex != index:
                    result.add(vertex)
        return result

    def triangle_circumcenter(self, triangle: Triangle) -> Point:
        """Circumcenter of a triangle, i.e. a Voronoi vertex of the dual."""
        a = self._points[triangle.a]
        b = self._points[triangle.b]
        c = self._points[triangle.c]
        return circumcenter(a, b, c)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def insert_site(self, point: Point, hint: Optional[int] = None) -> Tuple[int, Set[int]]:
        """Insert one site and return ``(new_index, changed_sites)``.

        ``changed_sites`` contains every surviving site whose Delaunay (and
        therefore Voronoi) neighbour set may have changed, the new site
        included.  The cost is O(walk + cavity size), not O(n).  The
        point-location walk starts at ``hint``, a site near ``point``, when
        that site is active; the cavity is unique, so the result is the same.

        Raises:
            GeometryError: when no cavity can be located or a degenerate
                hull configuration is met; the caller should fall back to a
                full rebuild.
        """
        perturbed = self._perturb(point)
        index = len(self._points)
        if hint is not None and self.is_active(hint):
            self._walk_hint = hint
        changed = self._carve_cavity(index, perturbed)
        self._original_points.append(point)
        self._points.append(perturbed)
        self._active.append(True)
        self._track_vertex(perturbed, added=True)
        self._walk_hint = index
        return index, changed

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
        star = list(self._incident.get(index, ()))
        if not star:
            raise GeometryError(f"site {index} is not part of the triangulation")
        if self._vertex_count <= 3:
            raise GeometryError("fewer than 3 sites would remain")
        cycle = self._star_boundary_cycle(index, star)
        link = [vertex for vertex in cycle if vertex >= 0]
        # Only the apex of a fan over collinear sites is adjacent to every
        # other site *and* leaves a collinear remainder.
        if len(link) == self._vertex_count - 1 and _all_points_collinear(
            [self._original_points[vertex] for vertex in link]
        ):
            raise GeometryError("only collinear sites would remain")
        replacement = self._retriangulate_hole(cycle)
        for triangle in star:
            self._remove_triangle(triangle)
        for triangle in replacement:
            self._add_triangle(triangle)
        self._active[index] = False
        self._incident.pop(index, None)
        self._track_vertex(self._points[index], added=False)
        if self._walk_hint == index:
            self._walk_hint = link[0]
        return set(link)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _jitter_scale(self, jitter: float) -> float:
        if jitter <= 0:
            return 0.0
        min_x, min_y, max_x, max_y = bounding_coordinates(self._original_points)
        return jitter * max(max_x - min_x, max_y - min_y, 1.0)

    def _perturb(self, point: Point) -> Point:
        if self._jitter_magnitude <= 0:
            return point
        return Point(
            point.x + (self._rng.random() - 0.5) * self._jitter_magnitude,
            point.y + (self._rng.random() - 0.5) * self._jitter_magnitude,
        )

    def _track_vertex(self, point: Point, added: bool) -> None:
        if added:
            self._centroid_x += point.x
            self._centroid_y += point.y
            self._vertex_count += 1
        else:
            self._centroid_x -= point.x
            self._centroid_y -= point.y
            self._vertex_count -= 1

    def _centroid(self) -> Point:
        return Point(
            self._centroid_x / self._vertex_count,
            self._centroid_y / self._vertex_count,
        )

    def _build(self) -> None:
        if self._seed_backend == "auto" and len(self._points) > _ACCELERATED_THRESHOLD:
            if self._build_accelerated():
                return
        # Bootstrap with the first non-degenerate triple, then insert every
        # other point with the same cavity machinery the live updates use
        # (ghost triangles make out-of-hull insertions uniform).
        first = 0
        second = next(
            (
                i
                for i in range(1, len(self._points))
                if not self._points[i].almost_equal(self._points[first])
            ),
            None,
        )
        third = None
        if second is not None:
            third = next(
                (
                    i
                    for i in range(1, len(self._points))
                    if i != second
                    and orientation(
                        self._points[first], self._points[second], self._points[i]
                    )
                    != 0
                ),
                None,
            )
        if second is None or third is None:
            raise GeometryError("Delaunay triangulation requires non-collinear points")
        base = self._oriented(first, second, third)
        self._add_triangle(base)
        for u, v in base.directed_edges():
            self._add_triangle(Triangle(u, v, GHOST))
        for vertex in (first, second, third):
            self._track_vertex(self._points[vertex], added=True)
        self._walk_hint = first
        for index in range(1, len(self._points)):
            if index in (second, third):
                continue
            self._carve_cavity(index, self._points[index])
            self._track_vertex(self._points[index], added=True)
            self._walk_hint = index

    def _build_accelerated(self) -> bool:
        """Seed the triangle set from scipy's Qhull wrapper, if available.

        The real triangles come straight from Qhull; the ghost ring is then
        derived from the hull (boundary) edges, so the live structure starts
        from exactly the Delaunay triangulation an offline rebuild computes.
        """
        try:
            from scipy.spatial import Delaunay as _SciPyDelaunay
            import numpy as _np
        except ImportError:
            return False
        coordinates = _np.array([[p.x, p.y] for p in self._points], dtype=float)
        try:
            triangulation = _SciPyDelaunay(coordinates)
        except Exception:
            return False
        directed_count: Dict[Tuple[int, int], int] = {}
        for simplex in triangulation.simplices:
            triangle = self._oriented(int(simplex[0]), int(simplex[1]), int(simplex[2]))
            self._add_triangle(triangle)
            for u, v in triangle.directed_edges():
                directed_count[(u, v)] = directed_count.get((u, v), 0) + 1
        # A hull edge appears as a directed edge of exactly one CCW triangle
        # (interior on its left); give each one a ghost triangle.
        for (u, v), count in directed_count.items():
            if count == 1 and (v, u) not in directed_count:
                self._add_triangle(Triangle(u, v, GHOST))
        for point in self._points:
            self._track_vertex(point, added=True)
        self._walk_hint = 0
        return True

    # ------------------------------------------------------------------
    # Triangle bookkeeping
    # ------------------------------------------------------------------
    def _add_triangle(self, triangle: Triangle) -> None:
        self._triangles.add(triangle)
        for vertex in triangle.vertices():
            self._incident.setdefault(vertex, set()).add(triangle)

    def _remove_triangle(self, triangle: Triangle) -> None:
        self._triangles.discard(triangle)
        for vertex in triangle.vertices():
            bucket = self._incident.get(vertex)
            if bucket is not None:
                bucket.discard(triangle)

    def _coordinates(self, index: int) -> Point:
        if index < 0:
            raise GeometryError("the ghost vertex has no coordinates")
        return self._points[index]

    def _oriented(self, a: int, b: int, c: int) -> Triangle:
        pa = self._points[a]
        pb = self._points[b]
        pc = self._points[c]
        if orientation(pa, pb, pc) < 0:
            return Triangle(a, c, b)
        return Triangle(a, b, c)

    def _circumcircle_contains(self, triangle: Triangle, point: Point) -> bool:
        """The Bowyer–Watson "bad triangle" predicate, ghost-aware.

        For a real (CCW) triangle this is the standard in-circle test.  For
        a ghost triangle standing in for the unbounded face beyond hull edge
        ``u -> v``, the "circumcircle" is the open half-plane strictly to
        the right of the edge, plus the open edge itself — the limit of the
        circumcircle as the ghost vertex recedes to infinity.
        """
        if triangle.is_real():
            a = self._points[triangle.a]
            b = self._points[triangle.b]
            c = self._points[triangle.c]
            return in_circumcircle(a.x, a.y, b.x, b.y, c.x, c.y, point.x, point.y) > 0.0
        u, v = triangle.ghost_edge()
        pu = self._points[u]
        pv = self._points[v]
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

    # ------------------------------------------------------------------
    # Point location (greedy walk + cavity flood fill)
    # ------------------------------------------------------------------
    def _adjacent_vertices(self, index: int) -> Set[int]:
        result: Set[int] = set()
        for triangle in self._incident.get(index, ()):
            result.update(triangle.vertices())
        result.discard(index)
        return result

    def _nearest_vertex(self, point: Point) -> Optional[int]:
        """Greedy descent over the Delaunay graph towards ``point``.

        On a Delaunay triangulation, some neighbour of any non-nearest
        vertex is strictly closer to the target, so the walk terminates at
        the site nearest to ``point``.
        """
        current = self._walk_hint
        if current is None or current not in self._incident or not self._active[current]:
            current = next(
                (v for v in self._incident if v >= 0 and self._active[v]), None
            )
        if current is None:
            return None
        current_distance = self._points[current].distance_squared_to(point)
        while True:
            best = current
            best_distance = current_distance
            for neighbor in self._adjacent_vertices(current):
                if neighbor < 0:
                    continue
                distance = self._points[neighbor].distance_squared_to(point)
                if distance < best_distance:
                    best = neighbor
                    best_distance = distance
            if best == current:
                return current
            current = best
            current_distance = best_distance

    def _find_cavity(self, point: Point) -> List[Triangle]:
        """All triangles whose circumcircle contains ``point`` (the cavity).

        The cavity of a Bowyer–Watson insertion is edge-connected (ghost
        triangles included, through their shared ghost edges), so one "bad"
        seed triangle — found near the walk's nearest vertex — and a flood
        fill enumerate it without scanning the full triangle set.
        """
        seed: Optional[Triangle] = None
        nearest = self._nearest_vertex(point)
        if nearest is not None:
            for triangle in self._incident.get(nearest, ()):
                if self._circumcircle_contains(triangle, point):
                    seed = triangle
                    break
        if seed is None:
            # Rare numerical fallback: scan everything.
            for triangle in self._triangles:
                if self._circumcircle_contains(triangle, point):
                    seed = triangle
                    break
        if seed is None:
            raise GeometryError("no triangle circumcircle contains the new site")
        cavity: Set[Triangle] = {seed}
        stack: List[Triangle] = [seed]
        while stack:
            triangle = stack.pop()
            for edge in triangle.edges():
                u, v = tuple(edge)
                shared = self._incident.get(u, set()) & self._incident.get(v, set())
                for neighbor in shared:
                    if neighbor not in cavity and self._circumcircle_contains(
                        neighbor, point
                    ):
                        cavity.add(neighbor)
                        stack.append(neighbor)
        return list(cavity)

    def _carve_cavity(self, index: int, point: Point) -> Set[int]:
        """Carve the Bowyer–Watson cavity of ``point`` and fill it around ``index``.

        Returns the set of real sites whose neighbour lists may have changed
        (all vertices of removed triangles plus the new site).  The caller
        is responsible for registering ``point`` under ``index`` afterwards.
        """
        cavity = self._find_cavity(point)
        changed: Set[int] = {index}
        edge_count: Dict[Edge, int] = {}
        for triangle in cavity:
            for vertex in triangle.vertices():
                if vertex >= 0:
                    changed.add(vertex)
            for edge in triangle.edges():
                edge_count[edge] = edge_count.get(edge, 0) + 1
        new_triangles: List[Triangle] = []
        for triangle in cavity:
            for u, v in triangle.directed_edges():
                if edge_count[frozenset((u, v))] != 1:
                    continue
                if u >= 0 and v >= 0:
                    if triangle.is_real():
                        # The cavity (and hence the new point) lies on the
                        # left of a CCW triangle's directed edge.
                        new_triangles.append(Triangle(u, v, index))
                    else:
                        # Hull edge of a bad ghost triangle: the new point is
                        # strictly outside it, i.e. on the right.
                        new_triangles.append(Triangle(v, u, index))
                else:
                    # Ghost edge on the cavity boundary: the new point
                    # becomes a hull vertex; orient the new hull (ghost)
                    # edge so the interior centroid stays on its left.
                    real = u if u >= 0 else v
                    new_triangles.append(self._ghost_between(real, index, point))
        for triangle in cavity:
            self._remove_triangle(triangle)
        for triangle in new_triangles:
            self._add_triangle(triangle)
        return changed

    def _ghost_between(self, existing: int, index: int, point: Point) -> Triangle:
        """Ghost triangle for the new hull edge between ``existing`` and ``index``."""
        anchor = self._points[existing]
        side = orientation(anchor, point, self._centroid())
        if side > 0:
            return Triangle(existing, index, GHOST)
        if side < 0:
            return Triangle(index, existing, GHOST)
        raise GeometryError("degenerate hull edge orientation")

    # ------------------------------------------------------------------
    # Deletion helpers
    # ------------------------------------------------------------------
    def _star_boundary_cycle(self, index: int, star: List[Triangle]) -> List[int]:
        """The boundary of the star of ``index``, counter-clockwise around it.

        A single closed cycle; for a hull site it passes through
        :data:`GHOST`.  Ghost triangles are stored ``(u, v, GHOST)`` with the
        ghost on the right of ``u -> v`` — clockwise — so their link edge is
        taken reversed.
        """
        successor: Dict[int, int] = {}
        for triangle in star:
            a, b, c = triangle.vertices()
            if a == index:
                u, v = b, c
            elif b == index:
                u, v = c, a
            else:
                u, v = a, b
            if not triangle.is_real():
                u, v = v, u
            if u in successor:
                raise GeometryError(f"pinched star around site {index}")
            successor[u] = v
        start = next(iter(successor))
        cycle = [start]
        while True:
            following = successor.get(cycle[-1])
            if following is None:
                raise GeometryError(f"open star boundary around site {index}")
            if following == start:
                break
            cycle.append(following)
            if len(cycle) > len(successor):
                raise GeometryError(f"corrupt star boundary around site {index}")
        if len(cycle) != len(successor):
            raise GeometryError(f"disconnected star boundary around site {index}")
        return cycle

    def _hole_triangle(self, a: int, b: int, c: int) -> Triangle:
        """The triangle on three consecutive link vertices of a hole.

        With :data:`GHOST` among them: the ghost triangle of the new hull
        edge between the other two, which runs against the link's direction.
        """
        if a == GHOST:
            return Triangle(c, b, GHOST)
        if b == GHOST:
            return Triangle(a, c, GHOST)
        if c == GHOST:
            return Triangle(b, a, GHOST)
        return self._oriented(a, b, c)

    def _retriangulate_hole(self, cycle: Sequence[int]) -> List[Triangle]:
        """Delaunay triangulation of a star-shaped hole via ear clipping.

        An "ear" (three consecutive boundary vertices forming a convex
        corner whose circumcircle contains no other boundary vertex) of a
        star-shaped polygon can always be clipped, and doing so repeatedly
        yields the Delaunay triangulation of the hole — which, by locality
        of Delaunay deletion, is also globally Delaunay.  On a hull site's
        hole an ear containing :data:`GHOST` is a ghost triangle, whose
        "circumcircle" is the half-plane beyond the new hull edge (see
        :meth:`_circumcircle_contains`); the ghost lies in no circumcircle.
        """
        polygon = list(cycle)
        result: List[Triangle] = []
        while len(polygon) > 3:
            size = len(polygon)
            for i in range(size):
                a = polygon[i - 1]
                b = polygon[i]
                c = polygon[(i + 1) % size]
                real = GHOST not in (a, b, c)
                if real and orientation(self._points[a], self._points[b], self._points[c]) <= 0:
                    continue
                ear = self._hole_triangle(a, b, c)
                if any(
                    other >= 0
                    and other not in (a, b, c)
                    and self._circumcircle_contains(ear, self._points[other])
                    for other in polygon
                ):
                    continue
                result.append(ear)
                polygon.pop(i)
                break
            else:
                raise GeometryError("could not re-triangulate the deletion hole")
        result.append(self._hole_triangle(*polygon))
        return result


def _all_points_collinear(points: Sequence[Point], tolerance: float = 1e-9) -> bool:
    """True when every point lies (nearly) on one straight line."""
    base_a = points[0]
    base_b = next((p for p in points[1:] if not p.almost_equal(base_a)), None)
    if base_b is None:
        return True
    return all(orientation(base_a, base_b, p, tolerance) == 0 for p in points)


#: Above this size the construction prefers the accelerated backend (when
#: available); the pure-Python Bowyer–Watson construction, while no longer
#: quadratic thanks to walk-based point location, is still markedly slower
#: than Qhull for data-set-scale inputs.
_ACCELERATED_THRESHOLD = 1500


def _scipy_neighbors(points: Sequence[Point]) -> Optional[Dict[int, Set[int]]]:
    """Delaunay adjacency via scipy's Qhull wrapper, or None when unavailable.

    The from-scratch :class:`DelaunayTriangulation` remains the reference
    implementation (and the two are cross-checked in the test suite); the
    scipy path only exists so that experiments with tens of thousands of
    data objects can precompute their Voronoi neighbour lists in reasonable
    time, exactly as the paper assumes the VoR-tree is built offline.
    """
    try:
        from scipy.spatial import Delaunay as _SciPyDelaunay
    except ImportError:
        return None
    import numpy as _np

    coordinates = _np.array([[p.x, p.y] for p in points], dtype=float)
    try:
        triangulation = _SciPyDelaunay(coordinates)
    except Exception:
        return None
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(points))}
    indices, indptr = triangulation.vertex_neighbor_vertices
    for vertex in range(len(points)):
        neighbors = indptr[indices[vertex] : indices[vertex + 1]]
        adjacency[vertex].update(int(v) for v in neighbors)
    return adjacency


def delaunay_neighbors(points: Sequence[Point], backend: str = "auto") -> Dict[int, Set[int]]:
    """Convenience wrapper: Voronoi neighbour map of a point set.

    Args:
        points: the sites.
        backend: ``"builtin"`` forces the from-scratch Bowyer–Watson
            construction, ``"scipy"`` forces the accelerated Qhull backend,
            ``"auto"`` (default) uses the builtin construction for small
            inputs and the accelerated backend for large ones.

    Handles the degenerate cases (fewer than three points, collinear input)
    by falling back to adjacency between consecutive points along the line.
    """
    if backend not in ("auto", "builtin", "scipy"):
        raise GeometryError(f"unknown Delaunay backend {backend!r}")
    n = len(points)
    if n == 0:
        return {}
    if n == 1:
        return {0: set()}
    if n == 2:
        return {0: {1}, 1: {0}}
    if _all_points_collinear(points):
        # Collinear input: Voronoi neighbours are consecutive points along
        # the common line (handled below).
        pass
    elif backend == "scipy" or (backend == "auto" and n > _ACCELERATED_THRESHOLD):
        accelerated = _scipy_neighbors(points)
        if accelerated is not None:
            return accelerated
        if backend == "scipy":
            raise GeometryError("the scipy Delaunay backend is not available")
    try:
        if _all_points_collinear(points):
            raise GeometryError("collinear input")
        return DelaunayTriangulation(points, seed_backend="builtin").neighbors()
    except GeometryError as error:
        # Collinear input: Voronoi neighbours are consecutive points along
        # the common line.  Only (near-)collinear configurations may take
        # this fallback — any other construction failure is a genuine
        # geometric/numerical error and silently returning the chain
        # adjacency would corrupt every neighbour list downstream.
        if not _all_points_collinear(points) and "collinear" not in str(error):
            raise
        order = sorted(range(n), key=lambda i: (points[i].x, points[i].y))
        adjacency: Dict[int, Set[int]] = {i: set() for i in range(n)}
        for first, second in zip(order, order[1:]):
            adjacency[first].add(second)
            adjacency[second].add(first)
        return adjacency
