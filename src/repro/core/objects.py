"""Result and action types shared by all moving-kNN processors.

Every processor — INS and the baselines, Euclidean and road-network — answers
each timestamp with a :class:`QueryResult`, which reports the kNN set, the
guard information the processor holds (safe guarding objects or a safe
region) and the action it had to take to produce the answer.  The action
taxonomy is what the evaluation counts:

* ``NONE`` — the stored answer was still valid; nothing had to change.
* ``LOCAL_REORDER`` — the answer changed but could be composed from data
  already held by the client (no server communication).
* ``INCREMENTAL`` — a small amount of new data was fetched (e.g. one object's
  Voronoi neighbour list).
* ``FULL_RECOMPUTE`` — the answer and its guard structure were recomputed
  from the server-side index.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields
from typing import FrozenSet, Tuple


def immutable(cls: type) -> type:
    """``cls``, written like a frozen dataclass, rebuilt on a namedtuple row.

    ``dataclass`` only reads the fields (it generates no method), and the
    row is the value: building one is a single ``tuple.__new__``, a write
    raises ``AttributeError``, ``repr`` and pickling are the row's and
    ``hash`` the tuple's, while ``fields`` / ``replace`` keep working.
    ``==`` is class-strict, and a subclass's own fields follow the inherited
    ones, defaults last.  A class that normalises its fields defines
    ``__new__``: ``super(cls, cls).__new__`` is the row's.
    """
    declared = fields(dataclass(init=False, repr=False, eq=False)(cls))
    names = [f.name for f in declared]
    defaults = [f.default for f in declared if f.default is not MISSING]
    row = namedtuple(cls.__name__ + "Row", names, defaults=defaults, module=cls.__module__)
    # Defaults now live in the row, whose getters the class must not shadow.
    dropped = {*names, "__dict__", "__weakref__"}
    body = {key: value for key, value in vars(cls).items() if key not in dropped}
    body.update(__slots__=(), __eq__=_same, __ne__=_differ, __hash__=tuple.__hash__)
    return type(cls.__name__, (row, *cls.__bases__), body)


def _same(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _differ(self, other) -> bool:
    return not _same(self, other)


class UpdateAction(enum.Enum):
    """What a processor had to do at a timestamp to keep its answer correct."""

    NONE = "none"
    LOCAL_REORDER = "local_reorder"
    INCREMENTAL = "incremental"
    FULL_RECOMPUTE = "full_recompute"

    @property
    def requires_communication(self) -> bool:
        """True when the action involves client/server communication."""
        return self in (UpdateAction.INCREMENTAL, UpdateAction.FULL_RECOMPUTE)


@immutable
class QueryResult:
    """The answer of a moving-kNN processor at one timestamp.

    Attributes:
        timestamp: index of the timestamp this result answers (0-based).
        knn: the reported k nearest neighbour object indexes, nearest first.
        knn_distances: distance from the query to each reported neighbour, in
            the same order as ``knn`` (Euclidean or network distance
            depending on the processor).
        guard_objects: the safe guarding objects currently held (the IS for
            INS processors, the auxiliary candidates for V*, empty for safe
            region baselines that guard with a polygon instead).
        action: what the processor had to do at this timestamp.
        was_valid: True when the previously reported answer was still valid
            at this timestamp (i.e. no update procedure ran).
    """

    timestamp: int
    knn: Tuple[int, ...]
    knn_distances: Tuple[float, ...]
    guard_objects: FrozenSet[int]
    action: UpdateAction
    was_valid: bool

    @property
    def k(self) -> int:
        """Number of reported neighbours."""
        return len(self.knn)

    @property
    def knn_set(self) -> FrozenSet[int]:
        """The reported kNN set, order-insensitive."""
        return frozenset(self.knn)

    def describe(self) -> str:
        """One-line human-readable description, used by the demo renderer."""
        status = "valid" if self.was_valid else f"updated ({self.action.value})"
        neighbors = ", ".join(str(index) for index in self.knn)
        return f"t={self.timestamp}: kNN=[{neighbors}] [{status}]"
