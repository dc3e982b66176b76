"""The Euclidean multi-query MkNN server.

A thin metric-specific subclass of the generic
:class:`~repro.core.engine.ServingEngine` (which owns everything a metric
does not decide).  This module contributes only the plane: one shared,
incrementally maintained :class:`~repro.index.vortree.VoRTree` (the
expensive structure, which the processor of every registered query kind
reads — see :mod:`repro.queries.kinds`), the tree's repairs — O(affected
cells) per update — and what a move means here: the plane has no native relocation,
so an object moves by delete + reinsert, two object records.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import EmptyDatasetError
from repro.core.engine import ServingEngine
from repro.geometry.point import Point
from repro.index.vortree import VoRTree


class MovingKNNServer(ServingEngine[Point]):
    """Serve many concurrent moving kNN queries over one data set.

    Args:
        points: the data-object positions.
        allow_incremental: enable case-(i) incremental updates for every
            registered query (see :class:`~repro.core.ins_euclidean.INSProcessor`).
    """

    metric = "euclidean"

    def __init__(
        self,
        points: Sequence[Point],
        allow_incremental: bool = False,
    ):
        super().__init__()
        if not points:
            raise EmptyDatasetError("MovingKNNServer requires at least one data object")
        self._vortree = VoRTree(list(points))
        self._allow_incremental = allow_incremental

    @property
    def vortree(self) -> VoRTree:
        """The shared server-side VoR-tree."""
        return self._vortree

    index = vortree

    @property
    def allow_incremental(self) -> bool:
        """Whether registered queries use case-(i) incremental updates."""
        return self._allow_incremental

    def _split_moves(self, moves):
        return [point for _, point in moves], [index for index, _ in moves], []

    def _repair_batch(self, inserts, deletes, moves):
        return self._vortree.batch_update(inserts, deletes)
