"""Simulation harness: drive a serving engine and measure it.

* :mod:`repro.simulation.server_sim` — the one player.
  :func:`run_methods` compares the paper's methods as one query each on
  one engine, over its one index; ``simulate_server(scenario, service=None,
  check_answers=False, transport="local", step_delay=0.0)`` replays one
  :class:`~repro.workloads.scenarios.Scenario` — M concurrent query streams
  interleaved with a mixed object-update stream over one shared index — on
  the service it is given (or one it opens), in process or over any
  transport.
* :mod:`repro.simulation.report` — plain-text tables.
"""

from repro.simulation.server_sim import (
    ServerRun,
    check_knn_answer,
    run_methods,
    simulate_server,
)
from repro.simulation.report import format_table

__all__ = [
    "ServerRun",
    "check_knn_answer",
    "run_methods",
    "simulate_server",
    "format_table",
]
