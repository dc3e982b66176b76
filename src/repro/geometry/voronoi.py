"""Influential neighbour sets over order-1 Voronoi neighbour lists.

INS needs nothing of the order-1 Voronoi diagram but each site's neighbour
list (Definition 3 in the paper): Voronoi neighbours are Delaunay edges, so
the lists are the link rows of :class:`~repro.geometry.delaunay.DelaunayTriangulation`,
which :class:`~repro.index.vortree.VoRTree` keeps live, and
:func:`~repro.geometry.delaunay.delaunay_neighbors` maps a fixed site set.
No cell polygon is built; the safe-region query clips its order-k cells in
:mod:`repro.geometry.order_k`.  This module keeps Definition 4 over such a
map.
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping, Set

from repro.errors import GeometryError
from repro.geometry.delaunay import DelaunayTriangulation

#: The triangulation under the name the benchmark's layer ledger resolves
#: (``repro.geometry.voronoi:VoronoiDiagram.insert_site`` / ``.remove_site``
#: in ``bench/trace.py``, whose smoke test fails when a wrap point stops
#: resolving), so ``geometry.insert`` / ``geometry.remove`` time the dual's
#: own insert and remove.  Its build carves with ``_carve_cavity`` and is not
#: counted there.  The name goes when the ledger names the dual directly.
VoronoiDiagram = DelaunayTriangulation


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
