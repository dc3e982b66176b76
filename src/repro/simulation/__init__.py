"""Simulation harness: drive processors along trajectories and measure them.

* :mod:`repro.simulation.simulator` — run one processor over one trajectory,
  collecting per-timestamp results and cost counters.
* :mod:`repro.simulation.server_sim` — drive a whole multi-query server:
  M concurrent query streams interleaved with a mixed object-update stream
  over one shared index.
* :mod:`repro.simulation.experiment` — the method registry (report name ->
  processor factory, both metrics) and :func:`compare`, which runs several
  methods on one workload, optionally oracle-checked.
* :mod:`repro.simulation.report` — plain-text tables.
"""

from repro.simulation.simulator import SimulationRun, simulate
from repro.simulation.server_sim import (
    ServerSimulationRun,
    build_server,
    simulate_server,
)
from repro.simulation.experiment import METHODS, compare
from repro.simulation.report import format_table

__all__ = [
    "SimulationRun",
    "simulate",
    "ServerSimulationRun",
    "build_server",
    "simulate_server",
    "METHODS",
    "compare",
    "format_table",
]
