"""The benchmark's own brute-force oracle.

Independent of the code under test on purpose: distances are ``math.hypot``
over raw coordinates (plane) or a Dijkstra written here over the network's
adjacency lists (roads) — never ``Point.distance_to`` or
``repro.roadnet.shortest_path``.  An answer is right when it names ``k``
distinct live objects, reports each one's true distance, and its farthest
member is no farther than the true k-th nearest (so ties at the k-th
distance may be broken either way).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Dict, Sequence

try:  # n = 20000 makes a pure-Python scan the slowest thing in the run
    import numpy
except ImportError:  # pragma: no cover - the image ships numpy
    numpy = None

TOLERANCE = 1e-7


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def _answer_ok(
    knn: Sequence[int],
    reported: Sequence[float],
    k: int,
    true: Dict[int, float],
    kth: float,
) -> bool:
    """``true``: the real distance of (at least) every live member of ``knn``;
    ``kth``: the real k-th smallest distance over the whole population."""
    if len(knn) != k or len(set(knn)) != k or len(reported) != k:
        return False
    if any(index not in true for index in knn):
        return False
    if any(not _close(true[i], d) for i, d in zip(knn, reported)):
        return False
    # Not required: nearest-first order.  The engine reports members in a
    # stale order after some guard refreshes (seen at seed 71), as its own
    # check_knn_answer tolerates; the set and the distances must be right.
    return max(reported) <= kth + TOLERANCE * max(1.0, kth)


def _kth_smallest(values, k: int) -> float:
    return heapq.nsmallest(k, values)[-1]


class PlaneOracle:
    """k nearest by straight-line distance over ``index -> Point``."""

    def __init__(self, model: Dict[int, Any]):
        self._model = model
        self._arrays = None
        self._arrays_epoch = -1

    def check(self, epoch: int, position: Any, k: int, knn, reported) -> bool:
        """Check one answer given at data epoch ``epoch`` (the model's)."""
        qx, qy = position.x, position.y
        if numpy is None:
            true = {
                index: math.hypot(p.x - qx, p.y - qy)
                for index, p in self._model.items()
            }
            return _answer_ok(
                knn, reported, k, true, _kth_smallest(true.values(), k)
            )
        if self._arrays_epoch != epoch:
            self._arrays_epoch = epoch
            points = list(self._model.values())
            self._arrays = (
                numpy.array([p.x for p in points]),
                numpy.array([p.y for p in points]),
            )
        xs, ys = self._arrays
        distances = numpy.hypot(xs - qx, ys - qy)
        kth = float(numpy.partition(distances, k - 1)[k - 1])
        true = {
            index: math.hypot(p.x - qx, p.y - qy)
            for index, p in ((i, self._model.get(i)) for i in knn)
            if p is not None
        }
        return _answer_ok(knn, reported, k, true, kth)


class RoadOracle:
    """k nearest by network distance over ``index -> vertex``."""

    def __init__(self, model: Dict[int, int], network: Any):
        self._model = model
        self._network = network
        self._adjacency = {
            v: [(n, length) for n, length, _ in network.neighbors(v)]
            for v in network.vertices()
        }

    def check(self, epoch: int, position: Any, k: int, knn, reported) -> bool:
        edge = self._network.edge(position.edge_id)
        best = {edge.u: position.offset}
        other = edge.length - position.offset
        if other < best.get(edge.v, math.inf):
            best[edge.v] = other
        heap = [(d, v) for v, d in best.items()]
        heapq.heapify(heap)
        settled: Dict[int, float] = {}
        while heap:
            d, v = heapq.heappop(heap)
            if v in settled:
                continue
            settled[v] = d
            for n, length in self._adjacency[v]:
                nd = d + length
                if n not in settled and nd < best.get(n, math.inf):
                    best[n] = nd
                    heapq.heappush(heap, (nd, n))
        true = {
            index: settled.get(vertex, math.inf)
            for index, vertex in self._model.items()
        }
        return _answer_ok(knn, reported, k, true, _kth_smallest(true.values(), k))
