"""The abstract moving-kNN processor interface.

Every method compared in the evaluation — INS, the order-k safe-region
baseline, the V*-style baseline and the naive recomputation baseline, in both
Euclidean and road-network flavours — implements this interface, so the
serving engine (:mod:`repro.core.engine`) can serve them interchangeably.

A processor's lifecycle is::

    processor.initialize(first_position)     # returns the first QueryResult
    processor.update(next_position)          # one call per later timestamp
    processor.stats                          # cumulative cost counters

``initialize`` may be called again to restart the processor on a new
trajectory; doing so resets the internal answer state but keeps accumulating
statistics unless :meth:`MovingKNNProcessor.reset_stats` is called.

A *served* processor also hears about data-object updates: the serving
engine pushes each epoch's repair delta (``notify_data_update``).
:class:`DeltaMailbox` queues them, a processor that cares empties it on its
next timestamp (``_take_pending``), and one may settle on arrival a delta it
would absorb.
"""

from __future__ import annotations

import abc
from typing import AbstractSet, Generic, Iterable, Optional, Tuple, TypeVar

from repro.core.objects import QueryResult
from repro.core.stats import ProcessorStats

#: The position type: a Euclidean :class:`~repro.geometry.point.Point` or a
#: road-network :class:`~repro.roadnet.location.NetworkLocation`.
PositionT = TypeVar("PositionT")


class DeltaMailbox:
    """The data-update deltas queued since its holder last settled: one
    epoch's frozen pair held by reference, or a merged pair of its own."""

    def __init__(self):
        self._state_stale = False
        self._pending: Optional[Tuple[AbstractSet[int], AbstractSet[int]]] = None

    def __setstate__(self, state) -> None:
        if "_pending_changed" in state:  # pickled with a pair of private sets
            state["_pending"] = (state.pop("_pending_changed"), state.pop("_pending_removed"))
        self.__dict__.update(state)

    @property
    def state_stale(self) -> bool:
        """True when a data-update delta arrived since the last settle (queued or not)."""
        return self._state_stale

    def notify_data_update(self, changed: Iterable[int] = (), removed: Iterable[int] = ()) -> None:
        """Queue a repair delta, kept by reference if none is pending; settled lazily.

        ``changed`` is every object whose Voronoi neighbour set (or cell, or
        position) changed, exactly what the index's repair reports, not
        merely the object that moved; ``removed`` the objects deleted.
        """
        pending = self._pending
        if pending is None:
            self._pending = (frozenset(changed), frozenset(removed))
        else:
            if type(pending[0]) is frozenset:
                pending = self._pending = (set(pending[0]), set(pending[1]))
            pending[0].update(changed)
            pending[1].update(removed)
        self._state_stale = True

    def _take_pending(self) -> Tuple[AbstractSet[int], AbstractSet[int]]:
        """Empty the mailbox: ``(changed, removed)`` since the last call."""
        changed, removed = self._pending or (frozenset(), frozenset())
        self._pending = None
        self._state_stale = False
        return changed, removed


class MovingKNNProcessor(DeltaMailbox, abc.ABC, Generic[PositionT]):
    """Base class for all moving kNN query processors."""

    def __init__(self, k: int):
        DeltaMailbox.__init__(self)
        self._k = k
        self._stats = ProcessorStats()
        self._timestamp = -1
        self._last_position: Optional[PositionT] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of nearest neighbours maintained."""
        return self._k

    @property
    def stats(self) -> ProcessorStats:
        """Cumulative cost counters."""
        return self._stats

    @property
    def current_timestamp(self) -> int:
        """Index of the last processed timestamp (-1 before initialisation)."""
        return self._timestamp

    @property
    def last_position(self) -> Optional[PositionT]:
        """The last query position processed (None before initialisation)."""
        return self._last_position

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short method name used in reports (e.g. ``"INS"`` or ``"V*"``)."""

    def reset_stats(self) -> None:
        """Zero the cost counters (does not touch the answer state)."""
        self._stats = ProcessorStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self, position: PositionT) -> QueryResult:
        """Start (or restart) the query at ``position``.

        Returns the first :class:`~repro.core.objects.QueryResult`.
        """
        self._timestamp = 0
        self._stats.timestamps += 1
        self._last_position = position
        return self._initialize(position)

    def update(self, position: PositionT) -> QueryResult:
        """Advance the query to ``position`` (one timestamp later).

        Raises:
            RuntimeError: when called before :meth:`initialize`.
        """
        if self._timestamp < 0:
            raise RuntimeError("update() called before initialize()")
        self._timestamp += 1
        self._stats.timestamps += 1
        self._last_position = position
        return self._update(position)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _initialize(self, position: PositionT) -> QueryResult:
        """Compute the first answer and build the guard structure."""

    @abc.abstractmethod
    def _update(self, position: PositionT) -> QueryResult:
        """Validate (and if needed update) the answer for a new position."""
