"""Influential sets: IS, MIS and INS (Definitions 1–4 of the paper).

This module collects the set-level machinery the INS algorithm is built on,
independent of any particular processor:

* :func:`is_closer_set` — the ``A ≺_q B`` relation ("every object of A is
  closer to q than every object of B").
* :func:`verify_influential_set` — an oracle check of Definition 1 used by
  the tests: a candidate guard set S is an influential set of a kNN set O'
  exactly when, for every probed query position, ``O' = NN_k(q)`` holds if
  and only if ``O' ≺_q S``.
* :func:`minimal_influential_set` — the MIS (Definition 2), extracted from
  the exact order-k Voronoi cell.
* :func:`influential_neighbor_set` — the INS (Definition 4), the union of
  the order-1 Voronoi neighbour sets of the kNN members minus the members.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Set

from repro.errors import QueryError
from repro.geometry.delaunay import delaunay_neighbors
from repro.geometry.order_k import knn_indexes, order_k_cell
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox
from repro.geometry.voronoi import influential_neighbor_indexes as _ins_from_map


def is_closer_set(
    query: Point,
    closer: Iterable[Point],
    farther: Iterable[Point],
) -> bool:
    """The ``A ≺_q B`` relation of Definition 1.

    Returns True when every point of ``closer`` is at most as far from
    ``query`` as every point of ``farther``.  An empty ``farther`` set makes
    the relation trivially true; an empty ``closer`` set likewise.
    """
    closer_list = list(closer)
    farther_list = list(farther)
    if not closer_list or not farther_list:
        return True
    max_close = max(query.distance_to(p) for p in closer_list)
    min_far = min(query.distance_to(p) for p in farther_list)
    return max_close <= min_far


def influential_neighbor_set(
    neighbor_map: Mapping[int, Set[int]], members: Iterable[int]
) -> Set[int]:
    """The INS of ``members`` given a precomputed Voronoi neighbour map.

    Definition 4: the union of the order-1 Voronoi neighbour sets of the
    members, minus the members themselves.  Works identically for Euclidean
    Voronoi neighbour maps and network Voronoi neighbour maps.
    """
    return _ins_from_map(neighbor_map, members)


def influential_neighbor_set_from_points(
    sites: Sequence[Point], members: Iterable[int]
) -> Set[int]:
    """The INS computed directly from site coordinates (builds the dual)."""
    return influential_neighbor_set(delaunay_neighbors(sites), members)


def minimal_influential_set(
    sites: Sequence[Point],
    members: Iterable[int],
    reference: Optional[Point] = None,
    bounding_box: Optional[BoundingBox] = None,
) -> Set[int]:
    """The MIS of ``members`` (Definition 2).

    The MIS consists of the objects owning order-k Voronoi cells adjacent to
    the cell of ``members``; it is recovered from the exact order-k cell
    boundary (see :mod:`repro.geometry.order_k`).

    Note that when the cell is clipped by the bounding box (the true cell is
    unbounded), the returned set only covers neighbours across the bisector
    edges that remain inside the box — which is the correct MIS restricted
    to the modelled data space.
    """
    cell = order_k_cell(sites, members, reference=reference, bounding_box=bounding_box)
    return set(cell.mis_indexes)


def verify_influential_set(
    sites: Sequence[Point],
    members: Iterable[int],
    guard: Iterable[int],
    probes: Iterable[Point],
) -> bool:
    """Oracle check of Definition 1 over a set of probe positions.

    For every probe position q the equivalence
    ``members == NN_k(q)  <=>  members ≺_q guard`` must hold.  Ties (probe
    positions where the k-th and (k+1)-th distances coincide) are skipped,
    since at a tie both kNN sets are legitimate answers.

    Returns True when no probe violates the equivalence.
    """
    member_list = sorted(set(members))
    guard_list = sorted(set(guard))
    if set(member_list) & set(guard_list):
        raise QueryError("guard set must be disjoint from the member set")
    k = len(member_list)
    member_points = [sites[i] for i in member_list]
    guard_points = [sites[i] for i in guard_list]
    for probe in probes:
        true_knn = set(knn_indexes(sites, probe, k))
        distances = sorted(probe.distance_to(p) for p in sites)
        if k < len(sites):
            gap = distances[k] - distances[k - 1]
            if gap <= 1e-9 * max(distances[k], 1.0):
                continue
        is_knn = true_knn == set(member_list)
        is_guarded = is_closer_set(probe, member_points, guard_points)
        if is_knn != is_guarded:
            return False
    return True
