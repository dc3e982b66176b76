"""Spans recorded by the benchmark itself, and the layer ledger they give.

``install()`` wraps each layer's entry points — resolved by name from
``WRAP_POINTS``, never imported directly, because later changes may rename
internals but may not edit this package — with a timing wrapper that keeps
``(name, start, end, parent, request, size)`` in memory.  A wrap point that no
longer resolves is reported and its metrics read ``MISSING``; nothing crashes.

A span's *self time* is its duration minus the part its direct children
cover, so self times never overlap and the ledger is a sum::

    stream wall = sum over layers of self time + residual

``time.perf_counter`` is CLOCK_MONOTONIC on Linux, one clock for every
process on the box, so the server child's spans line up with the driver's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter

#: What a per-layer metric reads when its wrap point no longer exists.
MISSING = -1.0


def _encoded_size(args, result) -> int:
    return len(result)


def _body_size(args, result) -> int:
    return len(args[0]) + 4  # FrameReader strips the length prefix


def _frame_size(args, result) -> int:
    return len(args[0])


#: span name -> ((target, size function or None), ...).  A target is
#: ``module:attribute`` or ``module:Class.method``.  Every target that
#: resolves is wrapped; a name none of whose targets resolves is MISSING.
WRAP_POINTS: Dict[str, Tuple[Tuple[str, Optional[Callable]], ...]] = {
    "service.update": (("repro.service.session:Session.update", None),),
    "service.apply": (("repro.service.service:KNNService.apply", None),),
    "service.open": (
        ("repro.service.service:KNNService.open_session", None),
        ("repro.transport.client:RemoteService.open_session", None),
    ),
    "core.update": (("repro.core.engine:ServingEngine.update_position", None),),
    "core.batch": (
        ("repro.core.server:MovingKNNServer.batch_update", None),
        ("repro.core.road_server:MovingRoadKNNServer.batch_update", None),
    ),
    "index.retrieve": (("repro.index.vortree:VoRTree.retrieve", None),),
    "index.batch": (("repro.index.vortree:VoRTree.batch_update", None),),
    "index.rebuild": (("repro.index.vortree:VoRTree.full_rebuild", None),),
    "geometry.insert": (("repro.geometry.voronoi:VoronoiDiagram.insert_site", None),),
    "geometry.remove": (("repro.geometry.voronoi:VoronoiDiagram.remove_site", None),),
    "geometry.rebuild": (
        ("repro.geometry.delaunay:DelaunayTriangulation.__init__", None),
        ("repro.geometry.delaunay:delaunay_neighbors", None),
    ),
    "roadnet.batch": (
        ("repro.roadnet.network_voronoi:NetworkVoronoiDiagram.batch_update", None),
    ),
    "roadnet.rebuild": (
        ("repro.roadnet.network_voronoi:NetworkVoronoiDiagram.full_rebuild", None),
    ),
    "roadnet.knn": (
        ("repro.roadnet.knn:network_knn", None),
        ("repro.roadnet.knn:network_knn_from_vertex", None),
    ),
    "roadnet.sssp": (
        ("repro.roadnet.shortest_path:dijkstra", None),
        ("repro.roadnet.shortest_path:bounded_dijkstra", None),
        ("repro.roadnet.shortest_path:multi_source_dijkstra", None),
        ("repro.roadnet.shortest_path:distances_from_location", None),
        ("repro.roadnet.shortest_path:shortest_path_distance", None),
    ),
    "codec.encode": (("repro.transport.codec:encode", _encoded_size),),
    "codec.decode": (
        ("repro.transport.codec:_decode_body", _body_size),
        ("repro.transport.codec:decode", _frame_size),
    ),
    "transport.request": (("repro.transport.client:RemoteService._request", None),),
    "transport.send": (("repro.transport.stream:MessageStream.send", None),),
    "transport.receive": (("repro.transport.stream:MessageStream.receive", None),),
    "wal.append": (("repro.durability.wal:WriteAheadLog.append", None),),
    "wal.fsync": (("repro.durability.wal:WriteAheadLog._do_fsync", None),),
    "recovery.recover": (("repro.durability.recovery:recover_service", None),),
    "recovery.replay": (
        ("repro.durability.recovery:DurableKNNService._replay", None),
    ),
}

#: Opened by the server child's receive wrapper: one request's handling,
#: from the moment its frame is decoded until the next receive begins.
SERVER_SPAN = "transport.server"

Span = Tuple[str, float, float, int, int, int]  # name,start,end,parent,request,size


class _ThreadState:
    """One thread's span list (parents are indexes into the same list)."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.current = -1
        self.request = 0
        self.serving = -1  # the open SERVER_SPAN, server child only


_tls = threading.local()
_threads: List[_ThreadState] = []
missing: List[str] = []


def state() -> _ThreadState:
    """The calling thread's recorder (the driver sets ``.request`` on it)."""
    try:
        return _tls.state
    except AttributeError:
        _tls.state = created = _ThreadState()
        _threads.append(created)
        return created


def _wrap(name: str, function: Callable, size_of: Optional[Callable]) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        recorder = state()
        spans = recorder.spans
        me = len(spans)
        spans.append(None)
        parent = recorder.current
        recorder.current = me
        size = 0
        start = _clock()
        try:
            result = function(*args, **kwargs)
            if size_of is not None:
                size = size_of(args, result)
            return result
        finally:
            spans[me] = (name, start, _clock(), parent, recorder.request, size)
            recorder.current = parent

    return wrapper


def _wrap_server_receive(function: Callable) -> Callable:
    """``MessageStream.receive`` in the server child: besides its own span,
    it closes the previous request's SERVER_SPAN and opens the next one."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        recorder = state()
        spans = recorder.spans
        now = _clock()
        if recorder.serving >= 0:
            name, start, _, parent, request, size = spans[recorder.serving]
            spans[recorder.serving] = (name, start, now, parent, request, size)
            recorder.serving = -1
        me = len(spans)
        spans.append(None)
        recorder.current = me
        try:
            result = function(*args, **kwargs)
        finally:
            end = _clock()
            spans[me] = ("transport.receive", now, end, -1, recorder.request, 0)
            recorder.current = -1
        if result is not None:
            recorder.request += 1
            recorder.serving = recorder.current = len(spans)
            spans.append((SERVER_SPAN, end, end, -1, recorder.request, 0))
        return result

    return wrapper


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


def install(server: bool = False) -> None:
    """Wrap every resolvable wrap point.  Call once, after ``repro`` is
    imported and before anything is built.  ``server=True`` is the server
    child's variant (see :func:`_wrap_server_receive`)."""
    for name, targets in WRAP_POINTS.items():
        wrapped = 0
        for target, size_of in targets:
            try:
                owner, attribute, original = _resolve(target)
            except (ImportError, AttributeError):
                continue
            if server and name == "transport.receive":
                replacement = _wrap_server_receive(original)
            else:
                replacement = _wrap(name, original, size_of)
            setattr(owner, attribute, replacement)
            if not isinstance(owner, type):
                _rebind_importers(original, replacement)
            wrapped += 1
        if not wrapped:
            missing.append(name)
            print(f"bench.trace: wrap point {name} not found", file=sys.stderr)


def _rebind_importers(original: Callable, replacement: Callable) -> None:
    # ``from module import function`` copied the binding at import time.
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def export(process: str) -> List[Dict[str, Any]]:
    """Every finished span of this process as JSON-ready rows with ids that
    are unique across threads (``parent`` is an id or ``None``)."""
    rows = []
    offset = 0
    for thread, recorder in enumerate(_threads):
        spans = list(recorder.spans)  # a snapshot: other threads may append
        for local, span in enumerate(spans):
            if span is None:
                continue  # still open (the thread was inside it at export)
            name, start, end, parent, request, size = span
            rows.append(
                {
                    "id": offset + local,
                    "parent": offset + parent if parent >= 0 else None,
                    "name": name,
                    "start": start,
                    "end": end,
                    "request": request,
                    "size": size,
                    "process": process,
                    "thread": thread,
                }
            )
        offset += len(spans)
    return rows


def write_jsonl(path: str, rows: Iterable[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
class Totals:
    """Per span name: outermost calls, self seconds, outermost seconds, size."""

    def __init__(self, rows: List[Dict[str, Any]], window: Tuple[float, float]):
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.size: Dict[str, int] = {}
        by_id = {row["id"]: row for row in rows}
        covered: Dict[int, float] = {}
        for row in rows:
            if row["parent"] is not None:
                covered[row["parent"]] = (
                    covered.get(row["parent"], 0.0) + row["end"] - row["start"]
                )
        low, high = window
        for row in rows:
            if row["start"] < low or row["end"] > high:
                continue
            name = row["name"]
            duration = row["end"] - row["start"]
            self.self_s[name] = (
                self.self_s.get(name, 0.0) + duration - covered.get(row["id"], 0.0)
            )
            parent = by_id.get(row["parent"])
            if parent is None or parent["name"] != name:
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + duration
                self.size[name] = self.size.get(name, 0) + row["size"]


EVERYTHING = (float("-inf"), float("inf"))

#: metric -> (span name, which total).  Sums cover the driver *and* the
#: server child, so on wire-durable a count such as service.update_calls
#: sees both the RemoteSession and the server-side Session.
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "service.update_calls": ("service.update", "calls"),
    "service.update_self_s": ("service.update", "self_s"),
    "service.apply_calls": ("service.apply", "calls"),
    "service.apply_self_s": ("service.apply", "self_s"),
    "core.update_self_s": ("core.update", "self_s"),
    "core.batch_self_s": ("core.batch", "self_s"),
    "index.retrieve_calls": ("index.retrieve", "calls"),
    "index.retrieve_self_s": ("index.retrieve", "self_s"),
    "index.batch_calls": ("index.batch", "calls"),
    "index.batch_self_s": ("index.batch", "self_s"),
    "index.full_rebuilds": ("index.rebuild", "calls"),
    "geometry.insert_calls": ("geometry.insert", "calls"),
    "geometry.insert_s": ("geometry.insert", "self_s"),
    "geometry.remove_calls": ("geometry.remove", "calls"),
    "geometry.remove_s": ("geometry.remove", "self_s"),
    "geometry.rebuilds": ("geometry.rebuild", "calls"),
    "geometry.rebuild_s": ("geometry.rebuild", "self_s"),
    "roadnet.batch_calls": ("roadnet.batch", "calls"),
    "roadnet.batch_self_s": ("roadnet.batch", "self_s"),
    "roadnet.full_rebuilds": ("roadnet.rebuild", "calls"),
    "roadnet.knn_calls": ("roadnet.knn", "calls"),
    "roadnet.knn_self_s": ("roadnet.knn", "self_s"),
    "roadnet.sssp_calls": ("roadnet.sssp", "calls"),
    "roadnet.sssp_s": ("roadnet.sssp", "self_s"),
    "codec.encode_calls": ("codec.encode", "calls"),
    "codec.encode_s": ("codec.encode", "self_s"),
    "codec.decode_calls": ("codec.decode", "calls"),
    "codec.decode_s": ("codec.decode", "self_s"),
    "transport.requests": ("transport.request", "calls"),
    "transport.client_self_s": ("transport.request", "self_s"),
    "wal.appends": ("wal.append", "calls"),
    "wal.append_self_s": ("wal.append", "self_s"),
    "wal.fsyncs": ("wal.fsync", "calls"),
}

#: Span names whose self time is the box waiting, not a layer working.
_WAITS = ("transport.send", "transport.receive")


def ledger(
    driver: List[Dict[str, Any]],
    server: List[Dict[str, Any]],
    window: Tuple[float, float],
    stream_s: float,
    absent: Iterable[str],
) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition.

    ``window`` is the stream (first ``open_session`` to last reply): set-up
    work such as the initial triangulation stays out of the ledger.
    ``stream_s`` is the stream's wall without the calibration chunks run
    inside the window, the total the ledger must add up to.
    """
    absent = set(absent)
    here, there = Totals(driver, window), Totals(server, window)

    def total(name: str, kind: str) -> float:
        return getattr(here, kind).get(name, 0) + getattr(there, kind).get(name, 0)

    metrics: Dict[str, float] = {
        metric: MISSING if name in absent else total(name, kind)
        for metric, (name, kind) in SPAN_METRICS.items()
    }
    metrics["service.open_s"] = (
        MISSING if "service.open" in absent else here.total_s.get("service.open", 0.0)
    )
    # What the client spent inside send/receive is the wire plus the server
    # working; the server's own spans say how much of it was work.  Both
    # ends' time inside sendall/recv itself is the socket's.
    client_wait = sum(here.self_s.get(name, 0.0) for name in _WAITS)
    server_work = sum(
        seconds for name, seconds in there.self_s.items() if name not in _WAITS
    )
    metrics["transport.server_self_s"] = there.self_s.get(SERVER_SPAN, 0.0)
    metrics["transport.socket_s"] = max(0.0, client_wait - server_work)
    metrics["codec.bytes"] = here.size.get("codec.encode", 0) + here.size.get(
        "codec.decode", 0
    )
    working = sum(
        seconds for name, seconds in here.self_s.items() if name not in _WAITS
    )
    metrics["trace.residual_pct"] = 100.0 * (stream_s - working - client_wait) / stream_s
    return metrics
