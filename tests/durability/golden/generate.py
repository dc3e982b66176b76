"""Regenerate the durability directories an older build wrote: ``euclidean/``
and ``road/``, the refusal fixtures of ``tests/durability/test_older_snapshots.py``.

The committed output was written by the build at commit 15e5765, whose
snapshots (format ``INSQSNP1``) pickled a dict of the engine and its session
descriptors, over value classes (points, locations, edges, registered
queries, order-k cells) that all pickled a ``__dict__``.  No later build
reads them: each must refuse every one of these files by its format.  Run
this against that build only — a directory the current build writes is no
older file::

    git archive 15e5765 src | tar -x -C OLD
    PYTHONPATH=OLD/src python tests/durability/golden/generate.py

Each directory is a durable service with open sessions of every kind its
metric serves, checkpointed after churn and then logged past the
checkpoint: a base snapshot, a checkpoint holding sessions, and a log.
"""

import os
import random
import shutil

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


def main():
    for metric in KINDS:
        write(metric)


if __name__ == "__main__":
    main()
