"""What refreshing every session on every epoch would cost, read off a run.

A blanket refresh retrieves once per session at the first timestamp after
each data epoch.  The delta rule must retrieve strictly less often there:
it refreshes I(R), or absorbs the epoch, wherever the delta leaves R intact.
"""

from repro.core.objects import UpdateAction
from repro.workloads.scenarios import update_stream


def settle_retrievals(settles):
    """``(retrievals, bound)``: how many of ``settles`` — the answers given
    at the first timestamp after an epoch — paid a full retrieval, and how
    many a blanket refresh would have paid (every one)."""
    settles = list(settles)
    retrievals = sum(answer.action is UpdateAction.FULL_RECOMPUTE for answer in settles)
    return retrievals, len(settles)


def run_settle_retrievals(scenario, run):
    """:func:`settle_retrievals` of a ``simulate_server`` run of ``scenario``:
    every epoch there is followed by one step of every session."""
    stream = update_stream(scenario)
    epoch_steps = [step for step in range(1, scenario.timestamps) if stream[step] is not None]
    assert len(epoch_steps) == run.epochs
    # The recorded answers start at timestamp 1.
    return settle_retrievals(
        answers[step - 1] for answers in run.results.values() for step in epoch_steps
    )
