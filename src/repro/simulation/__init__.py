"""Simulation harness: drive a serving engine and measure it.

* :mod:`repro.simulation.server_sim` — the one player.
  :func:`run_methods` compares the paper's methods as one query each on
  one engine, over its one index; :func:`simulate_server` drives a whole
  multi-query service: M concurrent query streams interleaved with a mixed
  object-update stream over one shared index, in process or over any
  transport.
* :mod:`repro.simulation.report` — plain-text tables.
"""

from repro.simulation.server_sim import (
    ServerRun,
    build_server,
    check_knn_answer,
    run_methods,
    simulate_server,
)
from repro.simulation.report import format_table

__all__ = [
    "ServerRun",
    "build_server",
    "check_knn_answer",
    "run_methods",
    "simulate_server",
    "format_table",
]
