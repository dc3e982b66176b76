"""Every road search's result *and effort*, pinned by a digest.

All road searches run on two loops in ``roadnet.shortest_path``: an
unlabelled expansion and a labelled flood.  They replaced seven hand-written
heap loops (four in that module, ``network_knn``, and the diagram's two
repair floods) that each counted settled vertices and relaxed edges their
own way.  This test drives every caller of the two loops on grids (ties
everywhere) and random planar networks, and hashes each distance map, kNN
answer, owner map and neighbour map (in insertion order) together with the
``SearchStats`` integers.

The expected literals were generated by running this test body on the
seven-loop code, before the fold.  ``shortest_path_distance`` is called
without a stats accumulator: it alone changed effort in the fold (it now
stops under the target-set rule, so it also relaxes the target's edges and
settles the vertices tied with it; its distances did not move).
"""

import dataclasses
import hashlib
import random

import network_voronoi_reference as nvd

from repro.roadnet.generators import grid_network, random_planar_network
from repro.roadnet.knn import network_knn, object_distances_from_location
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import (
    SearchStats,
    bounded_dijkstra,
    dijkstra,
    distances_from_location,
    multi_source_dijkstra,
    shortest_path_distance,
)


def _digest_and_effort():
    rng = random.Random(5)
    digest = hashlib.blake2b(digest_size=12)
    stats = SearchStats()

    def absorb(value):
        digest.update(repr(value).encode())

    for seed in range(6):
        if seed % 2:
            network = grid_network(7, 9, spacing=10.0)
        else:
            network = random_planar_network(60, extent=400.0, seed=seed)
        vertices = network.vertices()
        objects = [rng.choice(vertices) for _ in range(15)]
        absorb(dijkstra(network, vertices[0], stats))
        absorb(bounded_dijkstra(network, vertices[3], 25.0, stats))
        absorb(multi_source_dijkstra(network, {v: i for i, v in enumerate(objects)}, stats))
        diagram = NetworkVoronoiDiagram(network, objects, stats)
        for _ in range(20):
            edge = rng.choice(network.edges())
            location = NetworkLocation(edge.edge_id, edge.length * rng.random())
            absorb(network_knn(network, objects, location, rng.randint(1, 6), stats))
            absorb(distances_from_location(network, location, stats=stats))
            absorb(
                distances_from_location(
                    network, location, targets=rng.sample(vertices, 3), stats=stats
                )
            )
            absorb(distances_from_location(network, location, radius=30.0, stats=stats))
            held = set(rng.sample(range(len(objects)), 5))
            owners = diagram.vertex_owners()
            if owners.get(edge.u) in held or owners.get(edge.v) in held:
                absorb(
                    object_distances_from_location(
                        network, objects, location, sorted(held),
                        stats=stats, owners=owners, cells=held, required=2,
                    )
                )
            absorb(shortest_path_distance(network, rng.choice(vertices), rng.choice(vertices)))
        for _ in range(30):
            draw = rng.random()
            if draw < 0.35:
                diagram.insert_object(rng.choice(vertices))
            elif draw < 0.7 and len(diagram) > 2:
                diagram.remove_object(rng.choice(diagram.active_indexes()))
            else:
                diagram.move_object(rng.choice(diagram.active_indexes()), rng.choice(vertices))
            absorb(list(diagram._vertex_owners.items()))
            absorb(list(diagram._vertex_distances.items()))
            absorb(sorted(nvd.neighbor_map(diagram).items()))
    return digest.hexdigest(), dataclasses.astuple(stats)


def test_every_search_result_and_effort_is_pinned():
    assert _digest_and_effort() == ("733bca33a0d9d1a2252c3bcf", (18690, 36273, 757))
