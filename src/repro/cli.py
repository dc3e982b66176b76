"""Command-line interface: run demo scenarios and experiments from a shell.

Installed as the ``insq`` console script (see pyproject.toml) and usable as
``python -m repro.cli``.  Three subcommands mirror the three things the
original demonstration lets a user do:

* ``demo-plane`` — serve the 2D Plane mode and print the state renderings
  at the interesting timestamps (the valid/invalid transitions of Fig. 4).
* ``demo-road`` — serve the Road Network mode (Fig. 3).
* ``compare`` — serve every method as one query on one engine over a
  configurable workload and print the experiment table.

Two more subcommands exercise the serving system itself:

* ``serve`` — drive M concurrent query sessions plus a mixed object-update
  stream through the metric-agnostic ``repro.service`` front door
  (optionally over a real ``--transport``) and report the communication
  bill: messages, objects and — over a transport — measured bytes, per the
  paper's headline metric; ``--per-session`` adds the per-session
  breakdown.  The workload options build one
  :class:`~repro.workloads.scenarios.Scenario`; ``serve`` opens the
  service itself (durable under ``--wal-dir``), mounts the metrics
  surfaces on it and replays the scenario with
  ``simulate_server(scenario, service, ...)``.  With
  ``--listen HOST:PORT`` (or ``--listen unix:PATH``) it instead *hosts*
  the service behind a socket for remote ``insq client`` processes.
* ``client`` — connect to a listening server, drive query sessions over
  the wire and print both sides of the bill (the client's measured bytes
  reconcile exactly against the codec's predicted sizes).
* ``recover`` — inspect a ``--wal-dir`` written by a durable server:
  validate every snapshot checksum and the log's CRC chain (sealed
  segments included), report the replay length and the bytes a checkpoint
  could reclaim, exit non-zero when the state is unrecoverable.
* ``stats`` — scrape a live server's metrics over the binary protocol:
  one ``MetricsRequest`` frame against an ``insq serve --listen``
  endpoint (or a ``--stats-port`` side endpoint) returns its
  :class:`~repro.transport.codec.MetricsSnapshot` — counters, gauges and
  the fixed-bucket latency histograms — printed as a summary or,
  with ``--prometheus``, as Prometheus exposition text.

Observability: ``serve`` takes ``--metrics-port`` (a stdlib-HTTP
Prometheus ``/metrics`` endpoint), ``--stats-port`` (the binary scrape
endpoint for ``insq stats``), ``--watch SECONDS`` (a periodic one-line
operator summary) and ``--trace FILE`` (span traces exported as
Chrome-trace JSONL for Perfetto).  All of it reads snapshots outside the
serving paths — answers and communication counters are bit-identical
with and without it (see ``tests/transport/test_obs_equivalence.py``).

Durability: ``serve --wal-dir DIR`` logs every state-changing exchange to
a write-ahead log (and snapshots the engine) so a killed server restarted
with the same ``--wal-dir`` replays back to the exact pre-crash state —
open sessions included, which remote clients re-attach to.  A listening
server also shuts down *gracefully* on SIGTERM/SIGHUP: it stops
accepting, parks every open session, checkpoints and releases the log —
zero sessions lost, and a successor started with the same ``--wal-dir``
adopts them.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from bisect import bisect_left
from itertools import accumulate
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.core.stats import CommunicationStats
from repro.service import open_service
from repro.simulation.report import format_table
from repro.simulation.server_sim import run_methods, simulate_server
from repro.viz.ascii_network import render_network_state
from repro.viz.ascii_plane import render_plane_state
from repro.workloads.scenarios import (
    default_euclidean_scenario,
    default_road_scenario,
    euclidean_server_scenario,
    fig4_scenario,
    road_server_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insq",
        description="INSQ: influential neighbor set based moving kNN query processing",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = argparse.ArgumentParser(add_help=False)
    demo.add_argument("--k", type=int, default=5, help="number of nearest neighbours")
    demo.add_argument("--rho", type=float, default=1.6, help="prefetch ratio")
    demo.add_argument(
        "--frames", type=int, default=4, help="how many state renderings to print"
    )
    subparsers.add_parser(
        "demo-plane", parents=[demo], help="run the 2D Plane mode demonstration (Figure 4)"
    )
    subparsers.add_parser(
        "demo-road", parents=[demo], help="run the Road Network mode demonstration (Figure 3)"
    )

    compare = subparsers.add_parser(
        "compare", help="compare INS against the baselines on a synthetic workload"
    )
    compare.add_argument("--space", choices=("plane", "road"), default="plane")
    compare.add_argument(
        "--n", type=int, default=None,
        help="number of data objects (default: 2000 plane, 40 road)",
    )
    compare.add_argument("--k", type=int, default=5, help="number of nearest neighbours")
    compare.add_argument("--rho", type=float, default=1.6, help="prefetch ratio")
    compare.add_argument("--steps", type=int, default=300, help="trajectory length")

    # The workload every serving subcommand drives: declared once.
    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument("--metric", choices=("euclidean", "road"), default="euclidean")
    workload.add_argument("--queries", type=int, default=16, help="concurrent sessions")
    workload.add_argument(
        "--n", type=int, default=None,
        help="number of data objects (default: 600 euclidean, 40 road)",
    )
    workload.add_argument("--k", type=int, default=4, help="number of nearest neighbours")
    workload.add_argument("--rho", type=float, default=1.6, help="prefetch ratio")
    workload.add_argument("--steps", type=int, default=40, help="timestamps per session")
    workload.add_argument(
        "--churn", choices=("low", "high", "none"), default="low",
        help="object-update stream intensity",
    )
    workload.add_argument("--seed", type=int, default=47, help="workload seed")
    workload.add_argument(
        "--fsync", choices=("always", "group", "batch", "off"), default="batch",
        help="with a WAL: its fsync policy ('group' batches concurrent "
             "commits into one fsync at 'always'-grade durability; "
             "default: 'batch')",
    )
    workload.add_argument(
        "--segment-bytes", type=int, default=None, metavar="BYTES",
        help="with a WAL: rotate it into sealed segments at roughly this "
             "size so checkpoints can reclaim disk (default: one growing file)",
    )

    serve = subparsers.add_parser(
        "serve",
        parents=[workload],
        help="drive M concurrent sessions + churn through the service layer",
    )
    serve.add_argument(
        "--check", action="store_true",
        help="verify every answer against a brute-force oracle",
    )
    serve.add_argument(
        "--transport", choices=("local", "tcp", "unix"), default="local",
        help="drive the simulated workload over a real transport",
    )
    serve.add_argument(
        "--per-session", action="store_true",
        help="print the per-session communication breakdown",
    )
    serve.add_argument(
        "--listen", metavar="HOST:PORT|unix:PATH", default=None,
        help="host the service behind a socket instead of simulating "
             "(drive it with 'insq client')",
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="with --listen: serve for this many seconds (default: until ^C)",
    )
    serve.add_argument(
        "--wal-dir", metavar="DIR", default=None,
        help="serve durably: write-ahead log + snapshots under DIR; "
             "restarting with the same DIR replays back to the pre-crash "
             "state (open sessions included)",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=None, metavar="N",
        help="with --wal-dir: checkpoint the engine every N log records "
             "(default: snapshot only at startup, replay the whole log)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="expose a Prometheus /metrics endpoint on 127.0.0.1:PORT "
             "while serving (0 picks a free port; the bound endpoint is "
             "printed)",
    )
    serve.add_argument(
        "--stats-port", type=int, default=None, metavar="PORT",
        help="expose the binary metrics-snapshot endpoint on "
             "127.0.0.1:PORT for 'insq stats' (0 picks a free port)",
    )
    serve.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="print a one-line metrics summary every SECONDS while the "
             "workload runs",
    )
    serve.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record span traces and export them to FILE as Chrome-trace "
             "JSONL on shutdown (open in Perfetto or chrome://tracing)",
    )
    serve.add_argument(
        "--step-delay", type=float, default=0.0, metavar="SECONDS",
        help="sleep between simulated timestamps (paces the run so live "
             "scrapes can observe it mid-stream)",
    )
    serve.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the metrics endpoints up this long after the workload "
             "finishes (a final scrape then sees the completed totals)",
    )

    recover = subparsers.add_parser(
        "recover",
        help="inspect and validate a durable server's --wal-dir",
    )
    recover.add_argument(
        "--wal-dir", metavar="DIR", required=True,
        help="durability directory written by 'insq serve --wal-dir'",
    )

    stats = subparsers.add_parser(
        "stats",
        help="scrape a live server's metrics snapshot over the binary "
             "protocol",
    )
    stats.add_argument(
        "address", metavar="ADDR",
        help="HOST:PORT or unix:PATH — an 'insq serve --listen' endpoint "
             "or the endpoint printed for --stats-port",
    )
    stats.add_argument(
        "--prometheus", action="store_true",
        help="print Prometheus exposition text instead of the summary",
    )

    client = subparsers.add_parser(
        "client",
        help="drive query sessions against a listening 'insq serve' process",
    )
    client.add_argument(
        "--connect", metavar="HOST:PORT|unix:PATH", required=True,
        help="endpoint printed by 'insq serve --listen'",
    )
    client.add_argument(
        "--metric", choices=("euclidean", "road"), default="euclidean",
        help="must match the server's metric",
    )
    client.add_argument("--queries", type=int, default=4, help="concurrent sessions")
    client.add_argument("--k", type=int, default=4, help="number of nearest neighbours")
    client.add_argument("--rho", type=float, default=1.6, help="prefetch ratio")
    client.add_argument("--steps", type=int, default=20, help="updates per session")
    client.add_argument(
        "--rows", type=int, default=10,
        help="road metric: grid rows (must match the server's scenario)",
    )
    client.add_argument(
        "--columns", type=int, default=10,
        help="road metric: grid columns (must match the server's scenario)",
    )
    client.add_argument(
        "--spacing", type=float, default=100.0,
        help="road metric: grid spacing (must match the server's scenario)",
    )
    client.add_argument("--seed", type=int, default=47, help="trajectory seed")
    client.add_argument(
        "--per-session", action="store_true",
        help="print the per-session communication breakdown",
    )
    return parser


def _print_demo(run, frames: int, render) -> None:
    """Up to ``frames`` invalid answers (the first answer included), else
    the first answers, each rendered; then the run's totals."""
    answers = run["answers"]
    interesting = [r for r in answers if not r.was_valid] or answers
    for result in interesting[:frames]:
        print(result.describe())
        print(render(result))
        print()
    print(
        f"timestamps={run['timestamps']}  kNN changes={run['knn_changes']}  "
        f"recomputations={run['full_recomputations']}"
    )


def _run_demo_plane(args: argparse.Namespace) -> int:
    scenario = fig4_scenario()
    [trajectory] = scenario.trajectories
    engine = open_service(scenario.metric, scenario.objects, scenario.network).engine
    run = run_methods(engine, trajectory, {"INS": ("knn", args.k, args.rho)})["INS"]
    _print_demo(run, args.frames, lambda result: render_plane_state(
        scenario.objects, trajectory[result.timestamp], result.knn, result.guard_objects
    ))
    return 0


def _run_demo_road(args: argparse.Namespace) -> int:
    scenario = default_road_scenario(k=args.k, rho=args.rho)
    [trajectory] = scenario.trajectories
    engine = open_service(scenario.metric, scenario.objects, scenario.network).engine
    run = run_methods(engine, trajectory, {"INS-road": ("knn", args.k, args.rho)})
    _print_demo(run["INS-road"], args.frames, lambda result: render_network_state(
        scenario.network, scenario.objects, trajectory[result.timestamp],
        result.knn, result.guard_objects,
    ))
    return 0


#: What ``insq compare`` prints of each run: no oracle runs there, so no
#: ``correct`` column.
_COMPARE_COLUMNS = (
    "method", "timestamps", "knn_changes", "full_recomputations",
    "local_reorders", "communication_events", "transmitted_objects",
    "distance_computations", "settled_vertices", "construction_seconds",
    "validation_seconds", "elapsed_seconds",
)


def _run_compare(args: argparse.Namespace) -> int:
    # Imported here: only this subcommand serves the baselines.
    from repro.baselines import METHOD_KINDS, baseline_kinds
    from repro.queries.kinds import registered

    if args.space == "plane":
        scenario = default_euclidean_scenario(
            object_count=args.n if args.n is not None else 2000,
            k=args.k, rho=args.rho, steps=args.steps,
        )
    else:
        scenario = default_road_scenario(
            object_count=args.n if args.n is not None else 40,
            k=args.k, rho=args.rho, steps=args.steps,
        )
    engine = open_service(scenario.metric, scenario.objects, scenario.network).engine
    methods = {
        name: (kind, args.k, args.rho) for name, kind in METHOD_KINDS[scenario.metric].items()
    }
    with registered(*baseline_kinds(scenario.step_length)):
        rows = run_methods(engine, scenario.trajectories[0], methods).values()
    print(format_table(list(rows), columns=_COMPARE_COLUMNS, title=f"comparison on {scenario.name}"))
    return 0


def _print_communication(comm, indent: str = "  ") -> None:
    print(f"{indent}uplink   messages     : {comm.uplink_messages}")
    print(f"{indent}uplink   objects      : {comm.uplink_objects}")
    print(f"{indent}downlink messages     : {comm.downlink_messages}")
    print(f"{indent}downlink objects      : {comm.downlink_objects}")
    print(f"{indent}total    messages     : {comm.messages}")
    print(f"{indent}total    objects      : {comm.objects_transmitted}")
    if comm.bytes_transmitted:
        print(f"{indent}uplink   bytes        : {comm.uplink_bytes}")
        print(f"{indent}downlink bytes        : {comm.downlink_bytes}")
        print(f"{indent}total    bytes        : {comm.bytes_transmitted}")


def _print_by_kind(by_kind, indent: str = "  ") -> None:
    """Per-query-kind communication split (nothing when there is none)."""
    if by_kind:
        print("communication by query kind")
    for kind in sorted(by_kind):
        comm = by_kind[kind]
        line = (
            f"{indent}{kind:<12}: msgs {comm.messages:>6}  "
            f"objects {comm.objects_transmitted:>7}"
        )
        if comm.bytes_transmitted:
            line += f"  bytes {comm.bytes_transmitted:>9}"
        print(line)


def _by_kind_from_snapshot(snapshot):
    """The per-kind split a server exports as ``insq_comm_*{kind=...}``
    gauges (see :func:`repro.transport.server.metrics_snapshot_frame`), so
    a remote client prints the split the server prints — without a wire
    frame of its own.  Empty when observability is disabled."""
    kinds = {}
    for name, labels, value in snapshot.gauges:
        if name.startswith("insq_comm_") and labels.startswith("kind="):
            comm = kinds.setdefault(labels[5:], CommunicationStats())
            setattr(comm, name[len("insq_comm_"):], int(value))
    return kinds


def _watch_line(snapshot) -> str:
    """One-line operator summary of a metrics snapshot."""
    gauges = {name: value for name, labels, value in snapshot.gauges if not labels}
    counters = {(name, labels): value for name, labels, value in snapshot.counters}
    request_count = 0
    request_sum = 0.0
    for name, _labels, buckets, total in snapshot.histograms:
        if name == "insq_request_seconds":
            request_count += sum(buckets)
            request_sum += total
    messages = int(
        gauges.get("insq_comm_uplink_messages", 0)
        + gauges.get("insq_comm_downlink_messages", 0)
    )
    objects = int(
        gauges.get("insq_comm_uplink_objects", 0)
        + gauges.get("insq_comm_downlink_objects", 0)
    )
    line = (
        f"[watch] epoch={int(gauges.get('insq_engine_epoch', 0))} "
        f"sessions={int(gauges.get('insq_sessions_open', 0))} "
        f"retrievals={counters.get(('insq_retrievals_total', 'outcome=recomputed'), 0)} "
        f"msgs={messages} objects={objects}"
    )
    if request_count:
        line += f" req_mean={request_sum / request_count * 1e3:.2f}ms"
    return line


def _mount_metrics(args: argparse.Namespace, service):
    """Mount the metrics surfaces the flags ask for on the live ``service``.

    Returns a cleanup that (after an optional ``--linger``) tears every
    surface down again; it does nothing when no observability flag asked
    for one.
    """
    wants = (
        args.metrics_port is not None
        or args.stats_port is not None
        or args.watch is not None
    )
    if not wants:
        return lambda: None
    from repro.transport.server import MetricsListener, metrics_snapshot_frame

    def provider():
        return metrics_snapshot_frame(service)

    cleanups = []
    if args.metrics_port is not None:
        from repro.obs.httpd import start_metrics_http

        httpd = start_metrics_http(provider, port=args.metrics_port)
        print(
            f"metrics endpoint        : http://127.0.0.1:{httpd.port}/metrics",
            flush=True,
        )
        cleanups.append(httpd.stop)
    if args.stats_port is not None:
        listener = MetricsListener(provider, port=args.stats_port)
        host, port = listener.address
        print(
            f"stats endpoint          : {host}:{port}  "
            f"(scrape with: insq stats {host}:{port})",
            flush=True,
        )
        cleanups.append(listener.stop)
    if args.watch is not None and args.watch > 0:
        stop = threading.Event()

        def _watch_loop():
            while not stop.wait(args.watch):
                print(_watch_line(provider()), flush=True)

        watcher = threading.Thread(target=_watch_loop, name="insq-watch", daemon=True)
        watcher.start()

        def _stop_watch():
            stop.set()
            watcher.join(timeout=5.0)

        cleanups.append(_stop_watch)

    def cleanup():
        if args.linger and args.linger > 0:
            time.sleep(args.linger)
        for teardown in reversed(cleanups):
            teardown()

    return cleanup


def _print_per_session(per_session) -> None:
    print("per-session breakdown")
    for query_id in sorted(per_session):
        comm = per_session[query_id]
        line = (
            f"  session {query_id:>4}: "
            f"msgs {comm.messages:>6}  objects {comm.objects_transmitted:>7}"
        )
        if comm.bytes_transmitted:
            line += f"  bytes {comm.bytes_transmitted:>9}"
        print(line)


def _build_server_scenario(args: argparse.Namespace):
    if args.metric == "euclidean":
        return euclidean_server_scenario(
            churn=args.churn,
            queries=args.queries,
            object_count=args.n if args.n is not None else 600,
            k=args.k,
            steps=args.steps,
            rho=args.rho,
            seed=args.seed,
        )
    return road_server_scenario(
        churn=args.churn,
        queries=args.queries,
        object_count=args.n if args.n is not None else 40,
        k=args.k,
        steps=args.steps,
        rho=args.rho,
        seed=args.seed,
    )


def _run_serve(args: argparse.Namespace) -> int:
    scenario = _build_server_scenario(args)
    if args.trace is not None:
        from repro.obs.trace import TRACER

        TRACER.enable()
    try:
        if args.listen is not None:
            return _serve_listen(args, scenario)
        return _serve_simulate(args, scenario)
    finally:
        if args.trace is not None:
            from repro.obs.trace import TRACER

            count = TRACER.export_chrome(args.trace)
            print(f"trace                   : {count} span(s) -> {args.trace}")


def _open_fresh_service(args: argparse.Namespace, scenario):
    """The service ``serve`` starts on the scenario's objects: durable,
    on a fresh write-ahead log, under ``--wal-dir``."""
    if args.wal_dir is None:
        return open_service(scenario.metric, scenario.objects, scenario.network)
    from repro.durability import open_durable_service

    return open_durable_service(
        args.wal_dir, scenario.metric, scenario.objects, scenario.network,
        fsync=args.fsync, snapshot_every=args.snapshot_every,
        segment_bytes=args.segment_bytes,
    )


def _serve_simulate(args: argparse.Namespace, scenario) -> int:
    service = _open_fresh_service(args, scenario)
    unmount = _mount_metrics(args, service)
    try:
        run = simulate_server(
            scenario,
            service,
            check_answers=args.check,
            transport=args.transport,
            step_delay=args.step_delay,
        )
    finally:
        unmount()
        if args.wal_dir is not None:
            # Release the log without logging goodbyes: the sessions stay
            # open in it, so the run's durable state can be recovered (and
            # re-attached to) afterwards.
            service.close_wal()
    stats = run.aggregate
    print(f"scenario                : {run.scenario}")
    print(f"sessions x timestamps   : {len(run.results)} x {run.timestamps}")
    print(f"transport               : {run.transport}")
    print(f"data epochs applied     : {run.epochs}  {run.update_counts}")
    print(f"retrievals              : {stats.full_recomputations}")
    print(f"ins refreshes / absorbed: {stats.ins_refreshes} / {stats.absorbed_updates}")
    print(f"index maintenance time  : {stats.maintenance_seconds:.3f}s")
    print("communication bill")
    _print_communication(run.communication)
    print(f"wall-clock time         : {run.elapsed_seconds:.3f}s")
    if args.per_session:
        _print_per_session(run.per_session_communication)
    if args.check:
        verdict = "all answers correct" if run.is_correct else f"{len(run.mismatches)} ORACLE MISMATCHES"
        print(f"oracle check            : {verdict}")
        if not run.is_correct:
            return 1
    return 0


def _serve_listen(args: argparse.Namespace, scenario) -> int:
    """Host the scenario's initial data set behind a socket server.

    With ``--wal-dir`` the hosted service is durable: a fresh directory
    starts a new write-ahead log, a directory holding state from an
    earlier (possibly killed) server is recovered first and its open
    sessions are adopted, so clients re-attach where they left off.

    SIGTERM and SIGHUP trigger a graceful drain instead of a crash: the
    server stops accepting, every open session is parked (WAL included),
    the durable state is checkpointed and the log released — a successor
    process on the same ``--wal-dir`` adopts the sessions, which is one
    step of a rolling restart.
    """
    from repro.durability import has_durable_state, recover_service
    from repro.transport import KNNServer, parse_endpoint

    adopt = args.wal_dir is not None and has_durable_state(args.wal_dir)
    if adopt:
        service = recover_service(
            args.wal_dir,
            snapshot_every=args.snapshot_every,
            segment_bytes=args.segment_bytes,
            wire_billing=True,
            fsync=args.fsync,
        )
        print(
            f"recovered {service.metric} state from {args.wal_dir}: "
            f"epoch {service.epoch}, {len(service.sessions())} open "
            "session(s) adopted"
        )
    else:
        service = _open_fresh_service(args, scenario)
    endpoint = parse_endpoint(args.listen)
    if isinstance(endpoint, str):
        server = KNNServer(service, path=endpoint, adopt_sessions=adopt)
    else:
        host, port = endpoint
        server = KNNServer(service, host=host, port=port, adopt_sessions=adopt)
    # SIGTERM/SIGHUP ask for a graceful drain.  Handlers can only be
    # installed from the main thread — elsewhere (tests driving this
    # function directly) the drain path is reachable via KNNServer.drain.
    drain_requested = threading.Event()
    restored_handlers = []
    if threading.current_thread() is threading.main_thread():
        def _request_drain(signum, frame):
            drain_requested.set()

        for signum in (signal.SIGTERM, signal.SIGHUP):
            restored_handlers.append((signum, signal.signal(signum, _request_drain)))
    try:
        with server:
            address = server.address
            printable = address if isinstance(address, str) else f"{address[0]}:{address[1]}"
            print(f"serving {args.metric} ({service.object_count} objects) on {printable}")
            print("drive it with: insq client --connect", printable, flush=True)
            unmount = _mount_metrics(args, service)
            try:
                try:
                    if args.duration is not None:
                        deadline = time.monotonic() + args.duration
                        while not drain_requested.is_set():
                            remaining = deadline - time.monotonic()
                            if remaining <= 0:
                                break
                            drain_requested.wait(min(remaining, 1.0))
                    else:
                        while not drain_requested.is_set():
                            drain_requested.wait(3600.0)
                except KeyboardInterrupt:
                    pass
                if drain_requested.is_set():
                    server.drain()
                    print(
                        f"drained: {len(server.orphans)} session(s) parked for "
                        "re-adoption"
                    )
            finally:
                unmount()
            print("communication bill")
            _print_communication(service.communication)
            _print_by_kind(service.engine.communication_by_kind())
            if args.per_session:
                _print_per_session(service.per_session_communication())
    finally:
        for signum, handler in restored_handlers:
            signal.signal(signum, handler)
    if args.wal_dir is not None:
        # A clean exit still leaves sessions open in the log on purpose:
        # clients of a restarted server expect to re-attach to them.
        # (After a drain this is a no-op: the log is already released.)
        service.close_wal()
    return 0


def _run_recover(args: argparse.Namespace) -> int:
    """Validate a durability directory and print its health report."""
    from repro.durability import inventory

    report = inventory(args.wal_dir)
    print(f"durability directory    : {report['directory']}")
    snapshots = report["snapshots"]
    print(f"snapshots               : {len(snapshots)}")
    for entry in snapshots:
        line = (
            f"  wal_seq {entry['wal_seq']:>8}  {entry['bytes']:>10} bytes  "
            f"{'valid' if entry['valid'] else 'CORRUPT'}"
        )
        print(line)
        if not entry["valid"]:
            print(f"    {entry['error']}")
    latest = report["latest_valid_snapshot_seq"]
    print(f"latest valid snapshot   : "
          f"{'none' if latest is None else f'wal_seq {latest}'}")
    wal = report["wal"]
    if not wal["exists"]:
        print("write-ahead log         : absent")
    elif wal.get("corrupt"):
        print(f"write-ahead log         : CORRUPT ({wal['error']})")
    else:
        print(
            f"write-ahead log         : {wal['records']} records "
            f"(last seq {wal['last_seq']}), {wal['valid_bytes']} valid bytes"
        )
        if wal["torn_bytes"]:
            print(
                f"  torn tail             : {wal['torn_bytes']} bytes "
                "(incomplete final record; repaired by truncation on reopen)"
            )
    segments = report.get("segments", {})
    if segments.get("count"):
        print(
            f"sealed wal segments     : {segments['count']} "
            f"({segments['bytes']} bytes, seqs {segments['first_seq']}.."
            f"{segments['last_seq']})"
        )
        if segments.get("error"):
            print(f"  chain error           : {segments['error']}")
        if segments.get("reclaimable_segments"):
            print(
                f"  reclaimable           : {segments['reclaimable_segments']} "
                f"segment(s), {segments['reclaimable_bytes']} bytes "
                "(wholly covered by the latest snapshot)"
            )
    if report["replay_records"] is not None:
        print(f"records to replay       : {report['replay_records']}")
    verdict = "recoverable" if report["healthy"] else "UNRECOVERABLE"
    print(f"verdict                 : {verdict}")
    return 0 if report["healthy"] else 1


def _run_client(args: argparse.Namespace) -> int:
    from repro.trajectory.euclidean import random_waypoint_trajectory
    from repro.trajectory.road import network_random_walk
    from repro.roadnet.generators import grid_network
    from repro.transport import connect
    from repro.workloads.datasets import data_space

    if args.metric == "euclidean":
        trajectories = [
            random_waypoint_trajectory(
                data_space(), steps=args.steps, step_length=60.0, seed=args.seed + i
            )
            for i in range(args.queries)
        ]
    else:
        network = grid_network(args.rows, args.columns, spacing=args.spacing)
        trajectories = [
            network_random_walk(
                network, steps=args.steps, step_length=40.0, seed=args.seed + i
            )
            for i in range(args.queries)
        ]
    with connect(args.connect) as remote:
        sessions = [
            remote.open_session(trajectory[0], k=args.k, rho=args.rho)
            for trajectory in trajectories
        ]
        retrieval_steps = 0
        timestamps = min(len(trajectory) for trajectory in trajectories)
        # Registration answered position 0; each later position is one
        # update, so every session performs exactly --steps updates.
        for step in range(1, timestamps):
            for session, trajectory in zip(sessions, trajectories):
                response = session.update(trajectory[step])
                if response.round_trips:
                    retrieval_steps += 1
        server_comm = remote.communication()
        per_session = remote.per_session_communication() if args.per_session else None
        snapshot = remote.metrics_snapshot()
        for session in sessions:
            session.close()
        print(f"sessions x timestamps   : {args.queries} x {timestamps}")
        print(f"steps that contacted the server: {retrieval_steps}")
        print("server-side communication bill")
        _print_communication(server_comm)
        _print_by_kind(_by_kind_from_snapshot(snapshot))
        if per_session is not None:
            _print_per_session(per_session)
        print("client-side wire measurement")
        print(f"  bytes sent            : {remote.bytes_sent}")
        print(f"  bytes received        : {remote.bytes_received}")
        predicted_ok = (
            remote.bytes_sent == remote.predicted_bytes_sent
            and remote.bytes_received == remote.predicted_bytes_received
        )
        print(f"  codec-predicted match : {predicted_ok}")
        return 0 if predicted_ok else 1


def _run_stats(args: argparse.Namespace) -> int:
    """Scrape a live server once and print its metrics snapshot."""
    from repro.obs.metrics import HISTOGRAM_BOUNDS, render_prometheus
    from repro.transport import connect

    with connect(args.address) as remote:
        snapshot = remote.metrics_snapshot()
    if args.prometheus:
        sys.stdout.write(render_prometheus(snapshot))
        return 0

    def _quantile(counts, q):
        # The bucket's upper edge (the open last bucket reports its lower edge).
        cumulative = list(accumulate(counts))
        bucket = bisect_left(cumulative, q * cumulative[-1])
        return HISTOGRAM_BOUNDS[min(bucket, len(HISTOGRAM_BOUNDS) - 1)]

    print(f"counters   ({len(snapshot.counters)})")
    for name, labels, value in snapshot.counters:
        suffix = f"{{{labels}}}" if labels else ""
        print(f"  {name}{suffix} = {value}")
    print(f"gauges     ({len(snapshot.gauges)})")
    for name, labels, value in snapshot.gauges:
        suffix = f"{{{labels}}}" if labels else ""
        rendered = f"{value:g}" if value != int(value) else f"{int(value)}"
        print(f"  {name}{suffix} = {rendered}")
    print(f"histograms ({len(snapshot.histograms)})")
    for name, labels, counts, total in snapshot.histograms:
        suffix = f"{{{labels}}}" if labels else ""
        count = sum(counts)
        if count:
            detail = (
                f"count {count}  sum {total:.6f}  mean {total / count:.6f}  "
                f"p50<={_quantile(counts, 0.5):.2e}  "
                f"p99<={_quantile(counts, 0.99):.2e}"
            )
        else:
            detail = "count 0"
        print(f"  {name}{suffix}: {detail}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``insq`` command."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "demo-plane":
            return _run_demo_plane(args)
        if args.command == "demo-road":
            return _run_demo_road(args)
        if args.command == "compare":
            return _run_compare(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "client":
            return _run_client(args)
        if args.command == "recover":
            return _run_recover(args)
        if args.command == "stats":
            return _run_stats(args)
    except ConfigurationError as error:
        parser.error(str(error))
    except BrokenPipeError:
        # Downstream closed early (`insq stats ... | head`); not an error.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
