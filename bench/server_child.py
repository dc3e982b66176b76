"""The server child of ``wire-durable``: a ``KNNServer`` over loopback TCP
hosting ``DurableKNNService(fsync="batch", wire_billing=True)``.

Started by ``bench/rep.py`` through ``run.py --child server`` so that the
benchmark's own timing wrappers can be installed here too.  It prints
``READY host port`` once it accepts connections, answers ``dump`` on stdin by
writing its spans and printing its ``repro.obs`` counts, and dies with its
parent: stdin reaching end-of-file means nobody is left to kill it.  It never
shuts down gracefully — the WAL it leaves must look like a crash.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

from bench import trace


def main(params: Dict[str, Any]) -> int:
    from repro.durability import DurableKNNService
    from repro.service import open_service
    from repro.transport import KNNServer

    from bench.generate import generate
    from bench.rep import registry_counts, resolve

    if params["traced"]:
        trace.install(server=True)
    workload = resolve(params)
    inputs = generate(workload, params["seed"])
    engine = open_service(
        metric=workload.metric, objects=inputs.objects, network=inputs.network
    ).engine
    service = DurableKNNService(
        engine, params["wal_dir"], fsync="batch", wire_billing=True
    )
    host, port = KNNServer(service).start().address
    print(f"READY {host} {port}", flush=True)
    for line in sys.stdin:
        if line.strip() == "dump":
            counts = registry_counts()
            trace.write_jsonl(params["trace_path"], trace.export("server"))
            print(json.dumps(counts), flush=True)
    os._exit(0)
