"""Regenerate the durability directories an older build wrote: ``euclidean/``,
``road/`` and ``expected.json``.

The committed output was written by the build at commit 15e5765, whose
value classes (points, locations, edges, registered queries, order-k
cells) all pickled a ``__dict__``, and
``tests/durability/test_older_snapshots.py`` holds every later build to
recovering it.  Run this against that build only — a directory the
current build writes tests nothing about older ones::

    git archive 15e5765 src | tar -x -C OLD
    PYTHONPATH=OLD/src python tests/durability/golden/generate.py

Each directory is a durable service with open sessions of every kind its
metric serves, checkpointed after churn and then logged past the
checkpoint, so recovery loads a snapshot that holds sessions and replays a
suffix.  ``expected.json`` records, per metric, the recovered epoch and
population and each session's answers at fixed further positions.
"""

import json
import os
import random
import shutil
import tempfile

from repro.durability import recover_service
from repro.durability.recovery import open_durable_service
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.location import NetworkLocation
from repro.service.messages import UpdateBatch

HERE = os.path.dirname(os.path.abspath(__file__))

#: The kinds each metric serves, with the ``k`` each session asks for.
KINDS = {
    "euclidean": (("knn", 3), ("region", 2), ("influential", 2)),
    "road": (("knn", 3), ("knn", 2)),
}


def position(metric, rng, network):
    """A random query position on the metric's space."""
    if metric == "euclidean":
        return Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
    edge = rng.choice(network.edges())
    return NetworkLocation(edge.edge_id, rng.uniform(0.0, edge.length))


def target(metric, rng, network):
    """A random object position: a point, or a vertex of the network."""
    if metric == "euclidean":
        return position(metric, rng, network)
    return rng.randrange(network.vertex_count)


def open_service(metric, directory):
    """A fresh durable service over a small seeded population."""
    rng = random.Random(5)
    if metric == "euclidean":
        objects = [position(metric, rng, None) for _ in range(60)]
        return open_durable_service(directory, metric=metric, objects=objects), None
    network = grid_network(6, 6)
    objects = place_objects(network, 12, seed=5)
    service = open_durable_service(directory, metric=metric, objects=objects, network=network)
    return service, network


def churn(service, metric, rng, network, steps):
    """Move every session and apply one insert, delete and move per step."""
    for _ in range(steps):
        for session in service.sessions():
            session.update(position(metric, rng, network))
        live = sorted(service.engine.index.active_indexes())
        mover, dropped = rng.sample(live, 2)
        service.apply(
            UpdateBatch(
                inserts=(target(metric, rng, network),),
                deletes=(dropped,),
                moves=((mover, target(metric, rng, network)),),
            )
        )


def encode(metric, value):
    return [value.x, value.y] if metric == "euclidean" else [value.edge_id, value.offset]


def write(metric):
    directory = os.path.join(HERE, metric)
    shutil.rmtree(directory, ignore_errors=True)
    service, network = open_service(metric, directory)
    rng = random.Random(7)
    for kind, k in KINDS[metric]:
        service.open_query(position(metric, rng, network), kind=kind, k=k)
    churn(service, metric, rng, network, steps=4)
    service.checkpoint()
    churn(service, metric, rng, network, steps=2)
    service.close_wal()

    probes = [position(metric, rng, network) for _ in range(3)]
    scratch = tempfile.mkdtemp()
    try:
        copy = os.path.join(scratch, metric)
        shutil.copytree(directory, copy)
        recovered = recover_service(copy)
        expected = {
            "epoch": recovered.engine.epoch,
            "population": sorted(recovered.engine.index.active_indexes()),
            "probes": [encode(metric, probe) for probe in probes],
            "sessions": [],
        }
        for session in recovered.sessions():
            answers = [session.update(probe).result for probe in probes]
            expected["sessions"].append(
                {
                    "query_id": session.query_id,
                    "kind": session.kind,
                    "k": session.k,
                    "knn": [list(result.knn) for result in answers],
                    "knn_distances": [list(result.knn_distances) for result in answers],
                }
            )
        recovered.close_wal()
    finally:
        shutil.rmtree(scratch)
    return expected


def main():
    expected = {metric: write(metric) for metric in KINDS}
    with open(os.path.join(HERE, "expected.json"), "w") as handle:
        json.dump(expected, handle, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
