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
* :func:`nearest_site` / :func:`locate` — a linear scan of the active objects.
"""

from repro.geometry.polygon import ConvexPolygon, bisector_halfplane
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
