"""Run a moving-kNN processor along a trajectory.

The simulator is deliberately minimal: it feeds positions to a processor one
timestamp at a time, records the :class:`~repro.core.objects.QueryResult`
stream and the wall-clock time, and (optionally) cross-checks every reported
kNN set against a brute-force oracle — which is how the integration tests
establish correctness of every method.

The oracle returns *all* object distances, which lets the checker handle
ties correctly: an answer is accepted when it consists of ``k`` objects none
of which is farther than the true k-th distance (within a tolerance), and it
contains every object strictly closer than that distance.  On grid road
networks exact distance ties are common, so a naive set comparison would
flag legitimate alternative answers as errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, List, Optional, Sequence, TypeVar

from repro.core.objects import QueryResult
from repro.core.processor import MovingKNNProcessor
from repro.core.stats import ProcessorStats
from repro.obs.clock import clock as _clock

PositionT = TypeVar("PositionT")

#: An oracle maps a query position to the distance of every data object
#: (``object_index -> distance``); used for correctness cross-checking.
Oracle = Callable[[PositionT], Dict[int, float]]


@dataclass
class SimulationRun(Generic[PositionT]):
    """The outcome of driving one processor along one trajectory.

    Attributes:
        method: the processor's report name.
        results: one :class:`~repro.core.objects.QueryResult` per timestamp.
        stats: the processor's cost counters after the run.
        elapsed_seconds: wall-clock time of the whole run.
        mismatches: timestamps at which the reported kNN set was provably
            wrong against the oracle (empty when no oracle was supplied or
            every answer was correct, allowing for distance ties).
        checked: True when an oracle cross-checked every answer.
    """

    method: str
    results: List[QueryResult]
    stats: ProcessorStats
    elapsed_seconds: float
    mismatches: List[int] = field(default_factory=list)
    checked: bool = False

    @property
    def timestamps(self) -> int:
        """Number of processed timestamps."""
        return len(self.results)

    @property
    def knn_changes(self) -> int:
        """How many times the reported kNN set changed between timestamps."""
        changes = 0
        for previous, current in zip(self.results, self.results[1:]):
            if previous.knn_set != current.knn_set:
                changes += 1
        return changes

    @property
    def invalid_timestamps(self) -> int:
        """Timestamps at which the previously held answer was invalid."""
        return sum(1 for result in self.results[1:] if not result.was_valid)

    @property
    def is_correct(self) -> bool:
        """True when no oracle mismatch was recorded."""
        return not self.mismatches

    def as_dict(self) -> Dict[str, object]:
        """The run's own measures, then every counter of :attr:`stats`.

        ``correct`` is present only when an oracle checked the run.
        """
        row: Dict[str, object] = {
            "method": self.method,
            "timestamps": self.timestamps,
            "knn_changes": self.knn_changes,
            "invalid_timestamps": self.invalid_timestamps,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.checked:
            row["correct"] = self.is_correct
        row.update(self.stats.as_dict())
        return row


def check_knn_answer(
    reported: Sequence[int],
    all_distances: Dict[int, float],
    k: int,
    tolerance: float = 1e-7,
) -> bool:
    """Tie-aware correctness check of a reported kNN answer.

    The answer is accepted when it has exactly ``k`` distinct members, none
    of them is farther than the true k-th smallest distance (within
    ``tolerance``, relative to the distance scale), and every object strictly
    closer than the true k-th distance is included.
    """
    members = list(reported)
    if len(members) != k or len(set(members)) != k:
        return False
    ordered = sorted(all_distances.values())
    if len(ordered) < k:
        return False
    kth = ordered[k - 1]
    scale = max(kth, 1.0)
    slack = tolerance * scale
    for index in members:
        if index not in all_distances or all_distances[index] > kth + slack:
            return False
    for index, distance in all_distances.items():
        if distance < kth - slack and index not in set(members):
            return False
    return True


def simulate(
    processor: MovingKNNProcessor[PositionT],
    trajectory: Sequence[PositionT],
    oracle: Optional[Oracle] = None,
    oracle_tolerance: float = 1e-7,
) -> SimulationRun[PositionT]:
    """Drive ``processor`` along ``trajectory``.

    Args:
        processor: the moving-kNN processor under test.
        trajectory: the query positions, one per timestamp (at least one).
        oracle: optional function returning every object's distance at a
            position; when given, every reported answer is cross-checked
            with :func:`check_knn_answer`.
        oracle_tolerance: tie tolerance of the correctness check.

    Returns:
        A :class:`SimulationRun` with the per-timestamp results and costs.
    """
    if not trajectory:
        raise ValueError("trajectory must contain at least one position")
    results: List[QueryResult] = []
    mismatches: List[int] = []
    start = _clock()
    for timestamp, position in enumerate(trajectory):
        if timestamp == 0:
            result = processor.initialize(position)
        else:
            result = processor.update(position)
        results.append(result)
        if oracle is not None:
            all_distances = oracle(position)
            if not check_knn_answer(result.knn, all_distances, processor.k, oracle_tolerance):
                mismatches.append(timestamp)
    elapsed = _clock() - start
    return SimulationRun(
        method=processor.name,
        results=results,
        stats=processor.stats,
        elapsed_seconds=elapsed,
        mismatches=mismatches,
        checked=oracle is not None,
    )
