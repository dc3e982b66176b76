"""Voronoi cell polygons and point location: the references the geometry tests draw with.

``VoRTree`` keeps the neighbour lists only — INS reads nothing else of the
order-1 Voronoi diagram.  The cell polygon of an object and the object
nearest to a query are what the geometry tests check those lists against, so
they live here, computed from the tree's public reads (``point``,
``active_indexes``, ``voronoi_neighbors``) on every call:

* :func:`bounding_box` — the active objects' extent grown by its own size
  (3x the extent), which always holds every object;
* :func:`cell` — the bisector half-planes against an object's Voronoi
  neighbours, clipped to that box (or to one given): the exact cell of an
  interior object, the clipped cell of a hull object;
* :func:`nearest_site` / :func:`locate` — a linear scan of the active objects;
* :func:`convex_hull` — a point set's hull, the polygon the clipping tests cut;
* :func:`circumcenter` / :func:`circumcircle` (a Voronoi vertex and its empty
  circle) and :func:`point_in_circumcircle` — the Delaunay tests' oracles.
"""

from repro.geometry.polygon import ConvexPolygon, bisector_halfplane
from repro.geometry.point import Point
from repro.geometry.predicates import in_circumcircle, orientation_value
from repro.geometry.primitives import BoundingBox


def bounding_box(tree):
    """The clipping box :func:`cell` defaults to, derived from the active objects."""
    tight = BoundingBox.from_points([tree.point(i) for i in tree.active_indexes()])
    return tight.expanded(max(tight.width, tight.height, 1.0))


def cell(tree, index, box=None):
    """The Voronoi cell polygon of object ``index``, clipped to ``box``."""
    site = tree.point(index)
    halfplanes = [
        bisector_halfplane(site, tree.point(other))
        for other in sorted(tree.voronoi_neighbors(index))
    ]
    clip = bounding_box(tree) if box is None else box
    return ConvexPolygon.from_bounding_box(clip).clip_halfplanes(halfplanes)


def nearest_site(tree, query):
    """Index of the active object nearest to ``query``."""
    return min(tree.active_indexes(), key=lambda i: tree.point(i).distance_squared_to(query))


def locate(tree, query):
    """Index of the Voronoi cell containing ``query``: :func:`nearest_site`."""
    return nearest_site(tree, query)


def convex_hull(points):
    """Convex hull of a point set (Andrew's monotone chain), counter-clockwise."""
    unique = sorted(set(points))
    if len(unique) <= 2:
        return ConvexPolygon(unique)

    def build(chain_points):
        chain = []
        for p in chain_points:
            # The exact sign of the cross product, not orientation()'s scaled
            # tolerance: with one, an extreme point nearly collinear with its
            # neighbours could be dropped from the hull.
            while len(chain) >= 2 and orientation_value(
                chain[-2].x, chain[-2].y, chain[-1].x, chain[-1].y, p.x, p.y
            ) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(unique)
    upper = build(list(reversed(unique)))
    return ConvexPolygon(lower[:-1] + upper[:-1])


def point_in_circumcircle(a, b, c, p):
    """True when ``p`` lies strictly inside the circumcircle of CCW triangle ``abc``."""
    return in_circumcircle(a.x, a.y, b.x, b.y, c.x, c.y, p.x, p.y) > 0.0


def circumcenter(a, b, c):
    """Circumcenter of triangle ``abc``; ``ZeroDivisionError`` when the points
    are exactly collinear."""
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    a2 = a.x * a.x + a.y * a.y
    b2 = b.x * b.x + b.y * b.y
    c2 = c.x * c.x + c.y * c.y
    ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d
    uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d
    return Point(ux, uy)


def circumcircle(a, b, c):
    """``(center, radius)`` of the circumcircle of triangle ``abc``."""
    center = circumcenter(a, b, c)
    return center, center.distance_to(a)
