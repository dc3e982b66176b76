"""Voronoi cell polygons and point location: the references the geometry tests draw with.

``VoronoiDiagram`` keeps the neighbour relation only — INS reads nothing
else of the diagram.  The cell polygon of a site and the site nearest to a
query are what the geometry tests check that relation against, so they live
here, computed from the diagram's public reads on every call:

* :func:`bounding_box` — the active sites' extent grown by its own size (3x
  the extent), which always holds every site;
* :func:`cell` — the bisector half-planes against a site's Voronoi
  neighbours, clipped to that box (or to one given): the exact cell of an
  interior site, the clipped cell of a hull site;
* :func:`nearest_site` / :func:`locate` — a linear scan of the active sites.
"""

from repro.geometry.polygon import ConvexPolygon, bisector_halfplane
from repro.geometry.primitives import BoundingBox


def bounding_box(diagram):
    """The clipping box :func:`cell` defaults to, derived from the active sites."""
    tight = BoundingBox.from_points([diagram.site(i) for i in diagram.active_site_indexes()])
    return tight.expanded(max(tight.width, tight.height, 1.0))


def cell(diagram, index, box=None):
    """The Voronoi cell polygon of site ``index``, clipped to ``box``."""
    site = diagram.site(index)
    halfplanes = [
        bisector_halfplane(site, diagram.site(other))
        for other in sorted(diagram.neighbors_of(index))
    ]
    clip = bounding_box(diagram) if box is None else box
    return ConvexPolygon.from_bounding_box(clip).clip_halfplanes(halfplanes)


def nearest_site(diagram, query):
    """Index of the active site nearest to ``query``."""
    return min(
        diagram.active_site_indexes(),
        key=lambda i: diagram.site(i).distance_squared_to(query),
    )


def locate(diagram, query):
    """Index of the Voronoi cell containing ``query``: :func:`nearest_site`."""
    return nearest_site(diagram, query)
