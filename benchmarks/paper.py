"""The paper's experiments as one table-driven sweep, written to ``PAPER_TABLE.json``.

INSQ's evaluation claim is a cost claim: at equal answers, the influential
neighbour set recomputes and communicates less than safe-region methods, and
its guard objects define the largest possible safe region (the order-k
Voronoi cell).  Every experiment below is data — a list of cells, each a
scenario and the methods run on it — and every cell runs on the serving
engine, as :func:`~repro.simulation.server_sim.run_methods` plays it: one
engine over the cell's data, so one index (E8 opens one per value of the
server's ``allow_incremental``), and one query per method — INS is the
``knn`` kind, the order-k safe region the ``region`` kind, and the
baselines the kinds of :func:`~repro.baselines.baseline_kinds`, registered
for the cell only:

* E1-E4 vary k, n, ρ and the query speed on uniform plane data; E1's
  construction and validation seconds are E6's overhead breakdown;
* E5 varies k on a grid and a random planar road network;
* E7 pits INS at ρ = 1 against the exact order-k safe region;
* E8 ablates prefetching × case-(i) incremental updates;
* F3 and F4 replay the road (Figure 3) and plane (Figure 4) demonstrations.

``PAPER_TABLE.json`` keeps the deterministic counters only, so a rerun on
any machine rewrites it byte for byte; the wall-clock columns are printed.
Each claim is a named check and the run exits non-zero when one fails.  The
timing checks run only at full size.

Run from the repository root::

    PYTHONPATH=src:. python -m benchmarks.paper           # ~50 s, rewrites the table
    PYTHONPATH=src:. python -m benchmarks.paper --smoke   # E5 and F3 at tiny sizes
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines import METHOD_KINDS, baseline_kinds
from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.queries.kinds import registered
from repro.roadnet.generators import place_objects, random_planar_network
from repro.simulation.report import format_table
from repro.simulation.server_sim import run_methods
from repro.trajectory.road import network_random_walk
from repro.workloads.scenarios import (
    Scenario,
    default_euclidean_scenario,
    default_road_scenario,
    fig4_scenario,
)

TABLE = pathlib.Path(__file__).resolve().parents[1] / "PAPER_TABLE.json"

#: The columns ``PAPER_TABLE.json`` holds: the cell, then deterministic counters.
KEYS = ("experiment", "cell", "method")
COUNTERS = (
    "timestamps", "knn_changes", "invalid_timestamps", "full_recomputations",
    "local_reorders", "incremental_updates", "communication_events",
    "transmitted_objects", "distance_computations", "settled_vertices",
)
#: Wall-clock columns: printed, never written.
TIMINGS = ("construction_seconds", "validation_seconds", "elapsed_seconds")


EUCLIDEAN_METHODS = tuple(METHOD_KINDS["euclidean"])
ROAD_METHODS = tuple(METHOD_KINDS["road"])


def _named(names: Sequence[str]) -> Dict[str, tuple]:
    """The compared methods at the scenario's own ρ."""
    kinds = {**METHOD_KINDS["euclidean"], **METHOD_KINDS["road"]}
    return {name: (kinds[name], None, False) for name in names}


def _plane(key: str, values, methods=EUCLIDEAN_METHODS, **fixed) -> List[tuple]:
    """One uniform-data cell per value of ``key``; the rest is ``fixed``.

    A cell is (label, scenario factory, report name -> (query kind, ρ or
    None for the scenario's, the server's ``allow_incremental``)).
    """
    argument = {"n": "object_count", "speed": "step_length"}.get(key, key)
    return [
        (f"{key}={value}",
         lambda value=value: default_euclidean_scenario(**fixed, **{argument: value}),
         _named(methods))
        for value in values
    ]


def _planar(k: int, steps: int) -> Scenario:
    network = random_planar_network(250, extent=5_000.0, seed=65)
    return Scenario(
        name=f"planar250-n60-k{k}",
        metric="road",
        objects=place_objects(network, 60, seed=66),
        network=network,
        trajectories=[network_random_walk(network, steps=steps, step_length=60.0, seed=67)],
        ks=[k],
        rho=1.6,
        step_length=60.0,
    )


def _road_k(values, size: int, objects: int, steps: int, planar: bool) -> List[tuple]:
    cells = []
    for k in values:
        cells.append((f"grid{size}x{size} k={k}", lambda k=k: default_road_scenario(
            rows=size, columns=size, object_count=objects, k=k, rho=1.6,
            steps=steps, step_length=40.0, seed=68), _named(ROAD_METHODS)))
        if planar:
            cells.append((f"planar250 k={k}", lambda k=k: _planar(k, steps), _named(ROAD_METHODS)))
    return cells


def _road_demo(size: int, objects: int, steps: int) -> List[tuple]:
    scenario = lambda: default_road_scenario(
        rows=size, columns=size, object_count=objects, k=5, rho=1.6,
        steps=steps, step_length=30.0, seed=52)
    return [(f"grid{size}x{size}-n{objects}-k5", scenario, _named(("INS-road",)))]


PLANE = dict(rho=1.6, step_length=40.0)

#: Experiment -> (title, cells), at the sizes the table is written at.
EXPERIMENTS: Dict[str, tuple] = {
    "E1": ("vary k (uniform n=3000, 250 steps)",
           _plane("k", (1, 2, 4, 8, 16), object_count=3_000, steps=250, seed=61, **PLANE)),
    "E2": ("vary n (k=8, 200 steps)",
           _plane("n", (500, 1_000, 2_000, 5_000, 10_000), k=8, steps=200, seed=62, **PLANE)),
    "E3": ("vary the prefetch ratio rho (n=3000, k=8, 300 steps)",
           _plane("rho", (1.0, 1.2, 1.6, 2.0, 2.5, 3.0), ("INS", "V*", "Naive"), object_count=3_000,
                  k=8, steps=300, step_length=40.0, seed=63)),
    "E4": ("vary the query speed (n=3000, k=8, 200 steps)",
           _plane("speed", (10.0, 20.0, 40.0, 80.0, 160.0), object_count=3_000, k=8,
                  steps=200, rho=1.6, seed=64)),
    "E5": ("road networks, vary k (60 objects, 150 steps)",
           _road_k((1, 2, 4, 8, 16), 15, 60, 150, planar=True)),
    "E7": ("rho = 1 INS vs the exact order-k cell (200 steps)",
           [(f"n={n} k={k}", lambda n=n, k=k, seed=seed: default_euclidean_scenario(
               object_count=n, k=k, rho=1.0, steps=200, step_length=30.0, seed=seed),
             _named(("INS", "OrderK-SR")))
            for n, k, seed in ((1_000, 4, 71), (2_000, 8, 72), (3_000, 16, 73))]),
    "E8": ("INS ablation: prefetch x incremental updates (n=3000, k=8, 300 steps)",
           [("n=3000 k=8", lambda: default_euclidean_scenario(
               object_count=3_000, k=8, steps=300, seed=81, **PLANE),
             {"plain": ("knn", 1.0, False), "incremental": ("knn", 1.0, True),
              "prefetch": ("knn", 1.6, False), "prefetch+incremental": ("knn", 1.6, True)})]),
    "F3": ("the Road Network mode demonstration (Figure 3)", _road_demo(12, 40, 250)),
    "F4": ("the 2D Plane mode demonstration (Figure 4)",
           [("fig4-plane-k5-rho1.6", fig4_scenario, _named(("INS",)))]),
}

#: ``--smoke``: the tiny sizes of the experiments that had one.
SMOKE: Dict[str, tuple] = {
    "E5": (EXPERIMENTS["E5"][0], _road_k((4,), 8, 20, 25, planar=False)),
    "F3": (EXPERIMENTS["F3"][0], _road_demo(8, 18, 40)),
}


def _serve(scenario, methods: Dict[str, tuple]) -> Dict[str, Dict[str, object]]:
    """One engine per ``allow_incremental`` value the methods ask for, one
    query per method on it; the baseline kinds are registered meanwhile."""
    measured = {}
    with registered(*baseline_kinds(scenario.step_length)):
        for incremental in sorted({spec[2] for spec in methods.values()}):
            if scenario.metric == "road":
                engine = MovingRoadKNNServer(scenario.network, scenario.objects)
            else:
                engine = MovingKNNServer(scenario.objects, allow_incremental=incremental)
            measured.update(run_methods(engine, scenario.trajectories[0], {
                method: (kind, scenario.ks[0], scenario.rho if rho is None else rho)
                for method, (kind, rho, flag) in methods.items() if flag == incremental}))
    return measured


def sweep(experiments: Dict[str, tuple] = EXPERIMENTS) -> List[Dict[str, object]]:
    """Run every cell of ``experiments``; one row per (cell, method)."""
    rows = []
    for experiment, (_, cells) in experiments.items():
        for label, scenario_of, methods in cells:
            measured = _serve(scenario_of(), methods)
            for method in methods:
                rows.append({"experiment": experiment, "cell": label, "method": method,
                             **{column: measured[method][column] for column in COUNTERS + TIMINGS}})
    return rows


# Checks: each takes one experiment's cells, {label: {method: row}}.
R, COMM, SENT = "full_recomputations", "communication_events", "transmitted_objects"

#: Cells where the ordering INS ≤ V* ≤ Naive on communication events per
#: timestamp is reversed, as measured.  Without a prefetch buffer (ρ = 1,
#: or k = 1 where ⌊1.6k⌋ = k) V*'s four auxiliary objects absorb more kNN
#: changes than the INS does.  The ordering checks hold the reversals to
#: exactly this set, so one appearing or vanishing fails them.
REVERSED = {"E3": {"rho=1.0"}, "E5": {"planar250 k=1"}}


def _every(predicate, where: str = "") -> Callable:
    return lambda cells: all(predicate(c) for label, c in cells.items() if label.startswith(where))


def _trend(predicate) -> Callable:
    """``predicate(first, last)`` over INS's rows at the first and last cell."""
    def check(cells):
        first, *_, last = cells.values()
        return predicate(first["INS"], last["INS"])
    return check


def _ordered(experiment: str, ins: str, vstar: str, naive: str) -> Callable:
    def check(cells):
        reversed_ = {label for label, c in cells.items()
                     if not c[ins][COMM] <= c[vstar][COMM] <= c[naive][COMM]}
        return reversed_ == REVERSED.get(experiment, set()) & set(cells)
    return check


def _every_timestamp(naive: str) -> Callable:
    return lambda c: c[naive][R] == c[naive]["timestamps"]


def _online(row) -> float:
    return row["construction_seconds"] + row["validation_seconds"]


#: (name, experiment, timing-only, predicate over the experiment's cells).
CHECKS = (
    ("E1.naive_recomputes_every_timestamp", "E1", False, _every(_every_timestamp("Naive"))),
    ("E1.ins_recomputes_less_than_naive", "E1", False, _every(lambda c: c["INS"][R] < c["Naive"][R])),
    ("E1.ins_recomputes_at_most_orderk", "E1", False, _every(lambda c: c["INS"][R] <= c["OrderK-SR"][R])),
    ("E1.ins_recomputes_at_most_vstar", "E1", False, _every(lambda c: c["INS"][R] <= c["V*"][R])),
    ("E1.ins_constructs_faster_than_orderk", "E1", True, _every(
        lambda c: c["INS"]["construction_seconds"] <= c["OrderK-SR"]["construction_seconds"])),
    ("E6.ins_construct_per_recompute_below_orderk", "E1", True, _every(
        lambda c: c["INS"]["construction_seconds"] / c["INS"][R]
        < c["OrderK-SR"]["construction_seconds"] / c["OrderK-SR"][R])),
    ("E6.ins_online_below_5x_naive", "E1", True, _every(
        lambda c: _online(c["INS"]) < 5 * _online(c["Naive"]))),
    ("E2.naive_recomputes_every_timestamp", "E2", False, _every(_every_timestamp("Naive"))),
    ("E2.ins_recomputes_less_than_naive", "E2", False, _every(lambda c: c["INS"][R] < c["Naive"][R])),
    ("E2.ins_sends_under_3x_naive", "E2", False, _every(lambda c: c["INS"][SENT] < 3 * c["Naive"][SENT])),
    ("E2.ins_recomputations_grow_with_n", "E2", False, _trend(lambda first, last: last[R] >= first[R])),
    ("E3.recomputations_fall_with_rho", "E3", False, _trend(lambda first, last: last[R] <= first[R])),
    ("E3.objects_per_retrieval_grow_with_rho", "E3", False, _trend(
        lambda first, last: last[SENT] / last[COMM] > first[SENT] / first[COMM])),
    ("E3.local_reorders_grow_with_rho", "E3", False, _trend(
        lambda first, last: last["local_reorders"] >= first["local_reorders"])),
    ("E4.naive_recomputes_every_timestamp", "E4", False, _every(_every_timestamp("Naive"))),
    ("E4.ins_recomputes_at_most_naive", "E4", False, _every(lambda c: c["INS"][R] <= c["Naive"][R])),
    ("E4.ins_recomputations_grow_with_speed", "E4", False, _trend(lambda first, last: last[R] >= first[R])),
    ("E5.naive_recomputes_every_timestamp_grid", "E5", False,
     _every(_every_timestamp("Naive-road"), "grid")),
    ("E5.ins_recomputes_at_most_vstar_grid", "E5", False,
     _every(lambda c: c["INS-road"][R] <= c["V*-road"][R], "grid")),
    ("E5.ins_recomputes_less_than_naive_grid", "E5", False,
     _every(lambda c: c["INS-road"][R] < c["Naive-road"][R], "grid")),
    ("E5.ins_communicates_less_than_naive_grid", "E5", False,
     _every(lambda c: c["INS-road"][COMM] < c["Naive-road"][COMM], "grid")),
    *((f"{e}.comm_order_ins_vstar_naive", e, False, _ordered(e, "INS", "V*", "Naive"))
      for e in ("E1", "E2", "E3", "E4")),
    ("E5.comm_order_ins_vstar_naive", "E5", False, _ordered("E5", "INS-road", "V*-road", "Naive-road")),
    ("E7.ins_invalidates_exactly_at_cell_exits", "E7", False, _every(
        lambda c: c["INS"]["invalid_timestamps"] == c["OrderK-SR"]["invalid_timestamps"])),
    ("E7.ins_recomputes_exactly_as_orderk", "E7", False, _every(lambda c: c["INS"][R] == c["OrderK-SR"][R])),
    ("E7.ins_faster_than_orderk", "E7", True, _every(
        lambda c: c["INS"]["elapsed_seconds"] <= c["OrderK-SR"]["elapsed_seconds"])),
    ("E8.each_mechanism_cuts_recomputations", "E8", False, _every(
        lambda c: max(c["incremental"][R], c["prefetch"][R]) < c["plain"][R])),
    ("E8.both_cut_most", "E8", False, _every(
        lambda c: c["prefetch+incremental"][R] <= min(c["incremental"][R], c["prefetch"][R]))),
    ("E8.both_send_less_than_plain", "E8", False, _every(
        lambda c: c["prefetch+incremental"][SENT] < c["plain"][SENT])),
    ("F3.knn_changes_but_few_recomputations", "F3", False, _every(
        lambda c: 0 < c["INS-road"]["knn_changes"] and c["INS-road"][R] < c["INS-road"]["timestamps"]
        and c["INS-road"][R] <= c["INS-road"]["knn_changes"] + 1)),
    ("F4.valid_and_invalid_states_both_occur", "F4", False, _every(
        lambda c: 0 < c["INS"]["invalid_timestamps"] < c["INS"]["timestamps"] - 1)),
    ("F4.every_invalidation_resolved", "F4", False, _every(
        lambda c: c["INS"][R] + c["INS"]["local_reorders"] >= c["INS"]["invalid_timestamps"])),
)


def check(rows: Sequence[Dict[str, object]], timing: bool = True) -> Dict[str, bool]:
    """Every check whose experiment ``rows`` hold (timing checks on request)."""
    table: Dict[str, Dict[str, Dict[str, dict]]] = {}
    for row in rows:
        table.setdefault(row["experiment"], {}).setdefault(row["cell"], {})[row["method"]] = row
    return {name: bool(predicate(table[experiment]))
            for name, experiment, timed, predicate in CHECKS
            if experiment in table and (timing or not timed)}


def write_table(rows: Sequence[Dict[str, object]], path: pathlib.Path = TABLE) -> None:
    """One JSON row per line, counters only."""
    lines = [json.dumps({column: row[column] for column in KEYS + COUNTERS}) for row in rows]
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="E5 and F3 at tiny sizes; the table is left alone")
    args = parser.parse_args(argv)
    experiments = SMOKE if args.smoke else EXPERIMENTS
    rows = sweep(experiments)
    for experiment, (title, _) in experiments.items():
        print(format_table([row for row in rows if row["experiment"] == experiment],
                           columns=KEYS[1:] + COUNTERS + TIMINGS, title=f"{experiment}: {title}"))
        print()
    results = check(rows, timing=not args.smoke)
    for name, passed in results.items():
        print(f"{name:<48} {passed}")
    if not args.smoke:
        write_table(rows)
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
