"""Simulation harness: drive processors along trajectories and measure them.

* :mod:`repro.simulation.simulator` — run one processor over one trajectory,
  collecting per-timestamp results and cost counters.
* :mod:`repro.simulation.server_sim` — drive a whole multi-query server:
  M concurrent query streams interleaved with a mixed object-update stream
  over one shared index.
* :mod:`repro.simulation.metrics` — summaries of a run (and correctness
  checking against a brute-force oracle).
* :mod:`repro.simulation.experiment` — parameter sweeps comparing several
  processors over several configurations (the E-series experiments).
* :mod:`repro.simulation.report` — plain-text tables for the benchmark
  harness output and ``benchmarks/results/``.
"""

from repro.simulation.simulator import SimulationRun, simulate
from repro.simulation.server_sim import (
    ServerSimulationRun,
    build_server,
    simulate_server,
)
from repro.simulation.metrics import RunSummary, summarize
from repro.simulation.experiment import ExperimentResult, MethodResult, run_euclidean_comparison, run_road_comparison
from repro.simulation.report import format_table

__all__ = [
    "SimulationRun",
    "simulate",
    "ServerSimulationRun",
    "build_server",
    "simulate_server",
    "RunSummary",
    "summarize",
    "ExperimentResult",
    "MethodResult",
    "run_euclidean_comparison",
    "run_road_comparison",
    "format_table",
]
