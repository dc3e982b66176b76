"""The five named workloads: their sizes, and why each exists.

Sizes give roughly 3-6 s per repetition on a 2-core box.  ``epochs`` is the
number of timestamps after registration: each applies one churn batch (when
the workload churns) and then advances every session once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``BENCHMARK.json`` declares.
        metric: ``"euclidean"`` or ``"road"``.
        objects: initial data objects.
        sessions: concurrent moving queries (one closed-loop driver thread).
        k: base ``k``; session ``i`` asks for ``k + i % k_cycle``.
        k_cycle: how many distinct ``k`` values the sessions cycle through.
        step: distance a query moves per timestamp.
        churn: ``(inserts, deletes, moves)`` per epoch (all zero: no epochs).
        epochs: timestamps after registration.
        grid: ``(rows, columns)`` of the road grid (road metric only).
        wire: serve through a ``KNNServer`` child process over loopback TCP
            hosting a durable service, then SIGKILL it and recover its WAL.
        oracle_every: check one answer in this many against the brute-force
            oracle (1 checks them all).
        rep_s: about what one repetition's set-up + stream takes, in seconds
            at the reference box speed, when this benchmark was written.  A
            constant on purpose: ``--seconds`` divided by it fixes how many
            repetitions a run makes, whatever the box or the commit.
    """

    name: str
    metric: str
    objects: int
    sessions: int
    k: int
    k_cycle: int
    step: float
    churn: Tuple[int, int, int]
    epochs: int
    grid: Tuple[int, int] = (0, 0)
    wire: bool = False
    oracle_every: int = 16
    rep_s: float = 0.0

    @property
    def churns(self) -> bool:
        return any(self.churn)

    @property
    def updates(self) -> int:
        """Position updates per repetition."""
        return self.sessions * self.epochs

    @property
    def ops(self) -> int:
        """Operations per repetition: opens, updates and epochs (recovery,
        where a repetition performs it, is one more)."""
        return self.sessions + self.updates + (self.epochs if self.churns else 0)


RHO = 1.6
GRID_SPACING = 100.0

_EUCLID = Workload(
    name="euclid-stream",
    metric="euclidean",
    objects=2000,
    sessions=64,
    k=8,
    k_cycle=3,
    step=20.0,
    churn=(1, 1, 1),
    epochs=400,
    rep_s=3.8,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        _EUCLID,
        Workload(
            name="road-stream",
            metric="road",
            objects=300,
            sessions=16,
            k=8,
            k_cycle=2,
            step=40.0,
            churn=(1, 1, 1),
            epochs=400,
            grid=(30, 30),
            oracle_every=8,
            rep_s=5.5,
        ),
        Workload(
            name="churn-heavy",
            metric="euclidean",
            objects=2000,
            sessions=4,
            k=8,
            k_cycle=1,
            step=20.0,
            churn=(4, 4, 4),
            epochs=400,
            rep_s=5.3,
        ),
        Workload(
            name="query-only",
            metric="euclidean",
            objects=20000,
            sessions=64,
            k=8,
            k_cycle=1,
            step=20.0,
            churn=(0, 0, 0),
            epochs=399,
            rep_s=6.2,
        ),
        # The inputs of euclid-stream, replayed over the wire: the difference
        # between the two workloads is the wire + WAL bill.
        replace(_EUCLID, name="wire-durable", wire=True, rep_s=7.6),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload at tiny sizes, with the oracle on every answer."""
    road = workload.metric == "road"
    return replace(
        workload,
        objects=40 if road else 150,
        sessions=3 if road else min(workload.sessions, 6),
        k=3,
        epochs=10,
        grid=(8, 8) if road else workload.grid,
        oracle_every=1,
    )
