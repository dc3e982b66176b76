"""The parent process: repetitions as children, checks, and the printed result.

``--trace 0`` repeats the workload's fixed stream on a freshly set-up service,
each repetition in a fresh child process, as often as ``--seconds`` of set-up
and stream take (``Workload.rep_s`` each; twice at least), and prints the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced repetition and prints
the per-layer metrics.  Either way every answer is compared bit for bit across
repetitions, a fixed sample of them against the brute-force oracle, and the
last stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from bench import calibrate
from bench.rep import KNOWN_EPOCH, RUN
from bench.workloads import WORKLOADS, Workload, smoke as smoke_sized

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: The contract gives a run 180 s; leave room to report.
RUN_DEADLINE_S = 165.0
REP_TIMEOUT_S = 100.0
MIN_REPS = 2
MAX_REPS = 5
DIGEST_CHARS = 16

#: Seed 71's stream after KNOWN_EPOCH epochs is the one ``BENCH_PR5.json``
#: measured: what it billed in-process, and shipped over loopback TCP.
KNOWN_SEED = 71
KNOWN = {"messages": 17634, "objects": 57329, "retrievals": 1784}
KNOWN_WIRE_BYTES = 3325936


def declared() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# What went wrong, counted
# ----------------------------------------------------------------------
class Verdict:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.reasons.append(reason)

    def take(self, label: str, rep: Dict[str, Any]) -> None:
        self.attempted += rep["ops_expected"]
        self.failed += rep["failed"]
        self.reasons.extend(f"{label}: {error}" for error in rep.get("errors", []))

    def same_answers(self, label: str, rep, reference) -> None:
        ours, theirs = rep.get("digests"), reference.get("digests")
        if ours is None or theirs is None or ours == theirs:
            return
        differing = abs(len(ours) - len(theirs)) // DIGEST_CHARS + sum(
            ours[i : i + DIGEST_CHARS] != theirs[i : i + DIGEST_CHARS]
            for i in range(0, min(len(ours), len(theirs)), DIGEST_CHARS)
        )
        self.fail(differing, f"{label}: {differing} answers differ from the reference")

    def same_counts(self, label: str, rep, reference, keys=None) -> None:
        ours, theirs = rep.get("counts"), reference.get("counts")
        if ours is None or theirs is None:
            return
        for key in keys or ours:
            if ours[key] != theirs[key]:
                self.fail(1, f"{label}: {key} {ours[key]} != reference {theirs[key]}")

    def known_answers(self, rep, wanted: Dict[str, int]) -> None:
        known = rep.get("known", {})
        for key, value in wanted.items():
            if known.get(key) != value:
                self.fail(
                    1,
                    f"seed {KNOWN_SEED} epoch {KNOWN_EPOCH}: {key} "
                    f"{known.get(key)} != known answer {value}",
                )


# ----------------------------------------------------------------------
# One run of one workload: its repetitions, as child processes
# ----------------------------------------------------------------------
class Run:
    """One workload at one seed, and the wall-clock left to report in."""

    def __init__(self, workload: Workload, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.verdict = Verdict()
        self._deadline = time.monotonic() + RUN_DEADLINE_S

    def rep(
        self,
        wire: bool,
        traced: bool = False,
        oracle: bool = False,
        recover: bool = True,
    ) -> Dict[str, Any]:
        """Run one repetition in a fresh process group and return what it wrote.

        The child, its server child and its temporary directory are gone when
        this returns — on success, failure, deadline and Ctrl-C alike.
        """
        sized = smoke_sized(self.workload) if self.smoke else self.workload
        expected = sized.ops + (1 if wire and recover else 0)
        timeout = min(REP_TIMEOUT_S, self._deadline - time.monotonic() - 5.0)
        lost = {"ops_expected": expected, "failed": expected}
        if timeout < 1.0:
            return dict(lost, errors=["no time left in the run for this repetition"])
        os.makedirs(OUT, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="rep-", dir=OUT)
        out = os.path.join(tmp, "result.json")
        params = {
            "workload": self.workload.name,
            "seed": self.seed,
            "smoke": self.smoke,
            "wire": wire,
            "traced": traced,
            "oracle": oracle,
            "recover": recover,
            "timeout": timeout,
            "tmp": tmp,
            "out": out,
            "trace_out": os.path.join(OUT, f"trace-{self.workload.name}.jsonl"),
        }
        child = subprocess.Popen(
            [sys.executable, RUN, "--child", "rep", json.dumps(params)],
            start_new_session=True,
        )
        try:
            try:
                child.wait(timeout=timeout + 15.0)
            except subprocess.TimeoutExpired:
                pass  # its own alarm did not fire: the kill below ends it
            if os.path.exists(out):
                with open(out, encoding="utf-8") as handle:
                    return json.load(handle)
            return dict(lost, errors=[f"repetition died (exit {child.poll()})"])
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)  # the server child too
            except ProcessLookupError:
                pass
            child.wait()
            shutil.rmtree(tmp, ignore_errors=True)

    def reference(self, oracle: bool) -> Optional[Dict[str, Any]]:
        """Over the wire only: the same inputs served in-process, untimed.
        They give the answers the wire must reproduce bit for bit."""
        if not self.workload.wire:
            return None
        reference = self.rep(wire=False, oracle=oracle)
        self.verdict.take("in-process reference", reference)
        return reference

    def check(self, reference, reps) -> None:
        """Every repetition reproduces the first one (and, over the wire, the
        in-process reference) bit for bit, with identical counters."""
        verdict, name = self.verdict, self.workload.name
        first = reference if reference is not None else reps[0]
        for number, rep in enumerate(reps):
            label = f"repetition {number + 1}"
            verdict.take(label, rep)
            verdict.same_answers(label, rep, first)
            verdict.same_counts(label, rep, reps[0])
            if reference is not None:
                verdict.same_counts(
                    label, rep, reference, ("updates", "messages", "objects", "recomputes")
                )
        if self.seed == KNOWN_SEED and not self.smoke:
            if name == "euclid-stream":
                verdict.known_answers(reps[0], KNOWN)
            elif name == "wire-durable":
                verdict.known_answers(reference, KNOWN)
                verdict.known_answers(reps[0], {"wire_bytes": KNOWN_WIRE_BYTES})


def percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def timings(rep: Dict[str, Any]) -> Dict[str, Any]:
    """One repetition's times, as measured (``raw``) and at the reference
    box speed (``norm``: each timestamp divided by the box-speed factor the
    calibration chunks around it give; see ``bench/calibrate.py``)."""
    slow = calibrate.factors(rep["chunk_s"])  # [0] follows the opens
    ticks = rep["tick_s"]
    per_tick = len(rep["update_s"]) // len(ticks)
    setup_slow = statistics.median(rep["setup_chunk_s"]) / calibrate.NOMINAL_S
    raw = {key: rep[key] for key in ("setup_s", "open_s", "tick_s", "update_s")}
    return {
        "raw": raw,
        "norm": {
            "setup_s": rep["setup_s"] / setup_slow,
            "open_s": rep["open_s"] / slow[0],
            "tick_s": [tick / slow[i + 1] for i, tick in enumerate(ticks)],
            "update_s": [
                seconds / slow[1 + j // per_tick]
                for j, seconds in enumerate(rep["update_s"])
            ],
        },
        "box_speed": 1.0 / statistics.mean(slow),
    }


def time_metrics(measured: List[Dict[str, Any]], prefix: str = "") -> Dict[str, float]:
    """The time metrics of a group of repetitions of one fixed stream.

    The replay is deterministic — timestamp ``t`` and update ``j`` do the
    same work in every repetition — so each is taken at its fastest across
    repetitions before summing or ranking.  Interference only ever adds
    time, and normalising under-corrects the heaviest of it; a real
    slowdown is in every repetition and survives the minimum.
    """

    def fastest(key: str) -> List[float]:
        return [min(values) for values in zip(*(times[key] for times in measured))]

    updates = sorted(fastest("update_s"))
    return {
        prefix + "setup_s": min(times["setup_s"] for times in measured),
        prefix + "stream_s": min(t["open_s"] for t in measured) + sum(fastest("tick_s")),
        prefix + "update_p50_us": percentile(updates, 0.50) * 1e6,
        prefix + "update_p99_us": percentile(updates, 0.99) * 1e6,
    }


# ----------------------------------------------------------------------
# --trace 0: the end-to-end metrics
# ----------------------------------------------------------------------
def measure(run: Run, seconds: float):
    workload = run.workload
    reference = run.reference(oracle=True)
    # How many repetitions is fixed by constants, not by what this run
    # measures: both sides of a comparison take their minimum over equally many.
    wanted = min(MAX_REPS, max(MIN_REPS, math.ceil(seconds / workload.rep_s)))
    reps: List[Dict[str, Any]] = []
    for number in range(1 if run.smoke else wanted):
        first = number == 0
        reps.append(
            run.rep(
                wire=workload.wire,
                oracle=first and reference is None,
                recover=first,  # recover_s is a per-layer metric: prove it once
            )
        )
        if reps[-1]["failed"]:
            break
    run.check(reference, reps)
    if any("rss_mb" not in rep for rep in reps):
        return None
    counts = reps[0]["counts"]
    measured = [timings(rep) for rep in reps]
    metrics = time_metrics([times["norm"] for times in measured])
    as_measured = time_metrics([times["raw"] for times in measured])
    as_measured["box.speed"] = statistics.median(t["box_speed"] for t in measured)
    print(
        f"bench: {workload.name}: {len(reps)} repetitions; as measured, before "
        "normalising to the reference box speed: "
        + " ".join(f"{name}={value:.6g}" for name, value in as_measured.items()),
        file=sys.stderr,
    )
    metrics.update(
        {
            "msgs_per_update": counts["messages"] / counts["updates"],
            "objects_per_update": counts["objects"] / counts["updates"],
            "recompute_ratio": counts["recomputes"] / counts["updates"],
            "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        }
    )
    return metrics


# ----------------------------------------------------------------------
# --trace 1: the per-layer metrics
# ----------------------------------------------------------------------
def trace_layers(run: Run):
    workload = run.workload
    reference = run.reference(oracle=False)
    plain = run.rep(wire=workload.wire)
    traced = run.rep(wire=workload.wire, traced=True, oracle=True)
    run.check(reference, [plain, traced])
    if "ledger" not in traced or "rss_mb" not in plain:
        return None
    counts = traced["counts"]
    epochs = sorted(plain["epoch_s"])
    plain_times, traced_times = timings(plain), timings(traced)
    metrics = dict(traced["ledger"])
    metrics.update(time_metrics([plain_times["raw"]], prefix="raw."))
    metrics.update(
        {
            "box.speed": plain_times["box_speed"],
            "core.recomputes": counts["recomputes"],
            "core.ins_refreshes": counts["ins_refreshes"],
            "core.absorbed_updates": counts["absorbed_updates"],
            "core.valid_ratio": counts["valid_updates"] / counts["updates"],
            "transport.retries": counts["retries"],
            "wal.bytes": traced.get("wal_bytes", 0),
            "wal.bytes_per_wire_byte": (
                traced.get("wal_bytes", 0) / counts["wire_bytes"]
                if counts["wire_bytes"]
                else 0.0
            ),
            "recovery.records": traced.get("wal_records", 0),
            # Normalised, or the box's mood between the two would swamp it.
            "trace.overhead_pct": 100.0
            * (
                time_metrics([traced_times["norm"]])["stream_s"]
                / time_metrics([plain_times["norm"]])["stream_s"]
                - 1.0
            ),
            "epoch_p50_ms": percentile(epochs, 0.50) * 1e3 if epochs else 0.0,
            "epoch_p99_ms": percentile(epochs, 0.99) * 1e3 if epochs else 0.0,
            "recover_s": plain.get("recover_s", 0.0),
            "wire_bytes_per_update": plain["counts"]["wire_bytes"] / counts["updates"],
        }
    )
    mismatches = 0
    for name, pair in traced["crosscheck"].items():
        if pair["trace"] != pair["obs"]:
            mismatches += 1
            print(
                f"bench: {workload.name}: {name} is {pair['trace']} by the trace "
                f"but {pair['obs']} by repro.obs",
                file=sys.stderr,
            )
    metrics["trace.crosscheck_mismatches"] = mismatches
    return metrics


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def result_line(verdict: Verdict, metrics, specs) -> Dict[str, Any]:
    failed = min(verdict.failed, verdict.attempted)
    body = {
        "correct": failed == 0 and metrics is not None,
        "attempted": max(1, verdict.attempted),
        "failed": failed,
        "metrics": {},
    }
    if metrics is not None:
        body["metrics"] = {
            spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
            for spec in specs
        }
    return body


def print_table(title: str, body, specs) -> None:
    print(f"\n{title}: attempted {body['attempted']}, failed {body['failed']}")
    for spec in specs:
        entry = body["metrics"].get(spec["name"])
        value = "n/a" if entry is None else f"{entry['value']:.6g}"
        bound = f"  bound {spec['bound']:.0%}" if "bound" in spec else ""
        print(
            f"  {spec['name']:<30} {value:>12} {spec['unit']:<6}"
            f" {spec['better']} is better{bound}"
        )


def main(argv: List[str]) -> int:
    if argv[:1] == ["--child"]:
        from bench import rep, server_child

        role = {"rep": rep.main, "server": server_child.main}[argv[1]]
        return role(json.loads(argv[2]))

    spec = declared()
    parser = argparse.ArgumentParser(prog="bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=KNOWN_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    def one(workload: Workload, traced: bool):
        run = Run(workload, args.seed, args.smoke)
        metrics = trace_layers(run) if traced else measure(run, args.seconds)
        specs = spec["per_layer" if traced else "end_to_end"]
        for reason in run.verdict.reasons:
            print(f"bench: {workload.name}: {reason}", file=sys.stderr)
        return result_line(run.verdict, metrics, specs), specs

    if args.workload:
        body, _ = one(WORKLOADS[args.workload], bool(args.trace))
        print(json.dumps(body))
        return 0 if body["correct"] else 1

    # No workload named: all of them, both ways, every metric by name.
    summary: Dict[str, Any] = {}
    for name in (w["name"] for w in spec["workloads"]):
        end_to_end, specs = one(WORKLOADS[name], traced=False)
        print_table(f"{name} end to end", end_to_end, specs)
        per_layer, specs = one(WORKLOADS[name], traced=True)
        print_table(f"{name} per layer", per_layer, specs)
        summary[name] = {"end_to_end": end_to_end, "per_layer": per_layer}
    correct = all(part["correct"] for both in summary.values() for part in both.values())
    print(json.dumps({"correct": correct, "workloads": summary}))
    return 0 if correct else 1
