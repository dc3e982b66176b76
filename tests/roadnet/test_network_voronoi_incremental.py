"""Randomized equivalence tests for incremental NetworkVoronoiDiagram maintenance.

The incremental repairs (insert/remove/move) are validated against the
from-scratch construction, which remains the correctness oracle.  Both
paths share the deterministic owner-id tie rule — a vertex at exactly equal
distance from several objects belongs to the smallest object index among
them, and a cell shared by co-located objects is labelled by its smallest
member — so the comparison is *exact* everywhere:

* on networks with irrational edge lengths (random planar graphs) network
  distances are essentially tie-free and the rule is never exercised;
* on grid networks (every edge the same length) distance ties are endemic
  and the rule is exercised constantly — vertex owners, edge ownership and
  the neighbour map must still match the oracle exactly.  (These tests used
  to accept any self-consistent tie-break; the escape hatch is gone.)

The delta contract (every object whose neighbour set changed is reported)
is what the road server's invalidation relies on, so it gets its own test.
"""

import math
import random

import pytest
from rebuild_reference import DIAGRAMS, RebuildingNetworkVoronoiDiagram
import network_voronoi_reference as nvd

from repro.errors import EmptyDatasetError, QueryError
from repro.roadnet.generators import grid_network, place_objects, random_planar_network
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram


def scanned_population(diagram):
    """The active population counted the slow way (``len()`` is a counter)."""
    return sum(diagram.is_active(index) for index in range(len(diagram.vertex_assignments)))


def apply_random_stream(diagram, network, rng, steps):
    """Drive a mixed insert/remove/move stream; returns the last delta."""
    changed = set()
    for _ in range(steps):
        op = rng.random()
        active = diagram.active_object_indexes()
        if op < 0.4:
            _, changed = diagram.insert_object(rng.choice(network.vertices()))
        elif op < 0.7 and len(active) > 2:
            changed = diagram.remove_object(rng.choice(active))
        else:
            changed = diagram.move_object(rng.choice(active), rng.choice(network.vertices()))
        assert len(diagram) == diagram.object_count() == scanned_population(diagram)
    return changed


def oracle_for(diagram, network):
    """A from-scratch diagram over the active objects plus the index remap."""
    active = diagram.active_object_indexes()
    oracle = NetworkVoronoiDiagram(network, [diagram.object_vertex(i) for i in active])
    remap = {position: index for position, index in enumerate(active)}
    return oracle, remap


def assert_matches_oracle(diagram, network):
    """The diagram must equal a from-scratch build *exactly*.

    The oracle is built over the active objects only, so its indexes are a
    dense renumbering; the remap is order-preserving, which keeps the
    owner-id tie rule aligned between the two builds.
    """
    oracle, remap = oracle_for(diagram, network)
    reverse = {index: position for position, index in remap.items()}
    # Distances and owners, vertex by vertex.
    for vertex in network.vertices():
        expected_distance = oracle._vertex_distances.get(vertex, math.inf)
        actual_distance = diagram._vertex_distances.get(vertex, math.inf)
        assert actual_distance == pytest.approx(expected_distance, abs=1e-9), vertex
        oracle_owner = nvd.vertex_owner(oracle, vertex)
        expected_owner = None if oracle_owner is None else remap[oracle_owner]
        assert nvd.vertex_owner(diagram, vertex) == expected_owner, vertex
    # Edge ownership (and split borders).
    for edge in network.edges():
        mine = nvd.edge_ownership(diagram, edge.edge_id)
        theirs = nvd.edge_ownership(oracle, edge.edge_id)
        if theirs is None:
            assert mine is None
            continue
        assert (mine.owner_u, mine.owner_v) == (
            remap[theirs.owner_u],
            remap[theirs.owner_v],
        ), edge.edge_id
        assert mine.is_split == theirs.is_split
        if theirs.is_split:
            assert mine.border_offset == pytest.approx(theirs.border_offset, abs=1e-9)
    # The lifted object-level neighbour map.
    oracle_map = {
        remap[position]: {remap[other] for other in neighbors}
        for position, neighbors in nvd.neighbor_map(oracle).items()
    }
    assert nvd.neighbor_map(diagram) == oracle_map
    # Per-object cells from the inverted index (representatives included).
    for index in diagram.active_object_indexes():
        assert diagram.cell_edges({index}) == oracle.cell_edges({reverse[index]}), index
        assert nvd.cell_length(diagram, index) == pytest.approx(
            nvd.cell_length(oracle, reverse[index]), abs=1e-6
        )


class TestTieFreeEquivalence:
    """On irrational edge lengths the incremental diagram must equal the
    oracle exactly — owners, edge ownership, neighbour map, cell edges."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_stream_matches_oracle(self, seed):
        rng = random.Random(seed)
        network = random_planar_network(120, extent=2_000.0, seed=seed)
        objects = place_objects(network, 12, seed=seed + 40)
        diagram = NetworkVoronoiDiagram(network, objects)
        apply_random_stream(diagram, network, rng, steps=120)
        assert_matches_oracle(diagram, network)


class TestGridEquivalence:
    """Grid networks tie constantly: the deterministic owner-id rule makes
    the incremental diagram equal the oracle exactly anyway — no
    tie-tolerant escape hatch."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_stream_matches_oracle(self, seed):
        rng = random.Random(seed + 10)
        network = grid_network(9, 9, spacing=50.0)
        objects = place_objects(network, 10, seed=seed + 60)
        diagram = NetworkVoronoiDiagram(network, objects)
        for _ in range(4):
            apply_random_stream(diagram, network, rng, steps=30)
            assert_matches_oracle(diagram, network)

    def test_cell_lengths_still_sum_to_network_length(self):
        rng = random.Random(5)
        network = grid_network(8, 8, spacing=25.0)
        objects = place_objects(network, 9, seed=77)
        diagram = NetworkVoronoiDiagram(network, objects)
        apply_random_stream(diagram, network, rng, steps=80)
        total = sum(nvd.cell_length(diagram, i) for i in diagram.active_object_indexes())
        assert total == pytest.approx(network.total_length)


class TestDeltaContract:
    """Every object whose neighbour set changed must be reported — the road
    server's query invalidation is built on this."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_changed_sets_cover_every_difference(self, seed):
        rng = random.Random(seed + 20)
        network = (
            grid_network(9, 9, spacing=40.0)
            if seed % 2 == 0
            else random_planar_network(100, extent=1_500.0, seed=seed)
        )
        objects = place_objects(network, 10, seed=seed + 30)
        diagram = NetworkVoronoiDiagram(network, objects)
        shadow = nvd.neighbor_map(diagram)
        for step in range(150):
            op = rng.random()
            active = diagram.active_object_indexes()
            removed = None
            if op < 0.4:
                _, changed = diagram.insert_object(rng.choice(network.vertices()))
            elif op < 0.7 and len(active) > 2:
                removed = rng.choice(active)
                changed = diagram.remove_object(removed)
            else:
                changed = diagram.move_object(rng.choice(active), rng.choice(network.vertices()))
            now = nvd.neighbor_map(diagram)
            for index, neighbors in now.items():
                if shadow.get(index) != neighbors:
                    assert index in changed, (step, index)
            for index in shadow:
                if index not in now:
                    assert index == removed, (step, index)
            shadow = now


class TestColocatedObjects:
    def test_insert_onto_occupied_vertex_shares_the_cell(self):
        network = grid_network(4, 4, spacing=10.0)
        diagram = NetworkVoronoiDiagram(network, [0, 15])
        index, changed = diagram.insert_object(0)
        assert index == 2
        assert 0 in diagram.neighbors_of(index)
        assert index in diagram.neighbors_of(0)
        assert diagram.neighbors_of(index) - {0} == diagram.neighbors_of(0) - {index}
        assert index in changed and 0 in changed
        # The co-located object owns nothing itself (the representative does).
        assert diagram.cell_edges({index}) == set()
        assert nvd.cell_length(diagram, index) == 0.0

    def test_remove_non_representative_keeps_the_cell(self):
        network = grid_network(4, 4, spacing=10.0)
        diagram = NetworkVoronoiDiagram(network, [0, 0, 15])
        before = diagram.cell_edges({0})
        changed = diagram.remove_object(1)
        assert not diagram.is_active(1)
        assert diagram.cell_edges({0}) == before
        assert 1 not in diagram.neighbors_of(0)
        assert 0 in changed and 2 in changed

    def test_remove_representative_promotes_the_colocated_object(self):
        network = grid_network(4, 4, spacing=10.0)
        diagram = NetworkVoronoiDiagram(network, [0, 0, 15])
        diagram.remove_object(0)
        # Object 1 inherits the cell (re-fought under its own label) and
        # the adjacency; the result must match a from-scratch build.
        assert nvd.vertex_owner(diagram, 0) == 1
        assert 2 in diagram.neighbors_of(1)
        assert_matches_oracle(diagram, network)

    def test_takeover_by_lower_index_mover_matches_oracle(self):
        # A move can land a *small* index on an occupied vertex: the group's
        # label shrinks and, on a grid, the smaller label wins border ties
        # the old one lost — the takeover must re-fight them.
        network = grid_network(7, 7, spacing=10.0)
        diagram = NetworkVoronoiDiagram(network, [24, 0, 48, 6, 42])
        diagram.move_object(0, 6)  # object 0 joins object 3's vertex
        group = diagram._vertex_objects[6]
        assert group == [0, 3]
        assert nvd.vertex_owner(diagram, 6) == 0
        assert_matches_oracle(diagram, network)
        # And leaving again re-fights the cell under the successor's label.
        diagram.move_object(0, 24)
        assert nvd.vertex_owner(diagram, 6) == 3
        assert_matches_oracle(diagram, network)

    def test_move_between_shared_vertices_matches_oracle(self):
        network = random_planar_network(60, extent=800.0, seed=33)
        vertices = network.vertices()
        diagram = NetworkVoronoiDiagram(
            network, [vertices[0], vertices[0], vertices[40], vertices[20]]
        )
        # Move a co-located member onto another occupied vertex, then away.
        for destination in (vertices[40], vertices[7]):
            diagram.move_object(1, destination)
            assert_matches_oracle(diagram, network)


class TestMaintenanceModes:
    """The repairs against :class:`RebuildingNetworkVoronoiDiagram`, which
    rebuilds from scratch on every mutation (``tests/rebuild_reference.py``)."""

    def test_rebuild_mode_reports_every_active_object(self):
        network = grid_network(5, 5, spacing=10.0)
        objects = place_objects(network, 6, seed=90)
        diagram = RebuildingNetworkVoronoiDiagram(network, objects)
        index, changed = diagram.insert_object(network.vertices()[0])
        assert changed == set(diagram.active_object_indexes())
        changed = diagram.remove_object(index)
        assert changed == set(diagram.active_object_indexes())

    @pytest.mark.parametrize(
        "make_network",
        [
            lambda: random_planar_network(80, extent=1_000.0, seed=8),
            lambda: grid_network(9, 9, spacing=50.0),
        ],
        ids=["tie-free-planar", "uniform-grid"],
    )
    def test_rebuild_and_incremental_agree(self, make_network):
        """The same stream through both modes keeps identical diagrams after
        every operation — including on uniform grids, where the owner-id tie
        rule is what keeps the two tie-breaks aligned.  (A repair slip can
        heal under later floods, so the end state alone would miss it.)"""
        network = make_network()
        objects = place_objects(network, 8, seed=91)
        incremental = NetworkVoronoiDiagram(network, objects)
        rebuild = RebuildingNetworkVoronoiDiagram(network, objects)
        rng = random.Random(9)
        for _ in range(60):
            op = rng.random()
            active = incremental.active_object_indexes()
            if op < 0.4:
                operation = ("insert", rng.choice(network.vertices()))
            elif op < 0.7 and len(active) > 2:
                operation = ("remove", rng.choice(active))
            else:
                operation = ("move", rng.choice(active), rng.choice(network.vertices()))
            for diagram in (incremental, rebuild):
                if operation[0] == "insert":
                    diagram.insert_object(operation[1])
                elif operation[0] == "remove":
                    diagram.remove_object(operation[1])
                else:
                    diagram.move_object(operation[1], operation[2])
            assert incremental._vertex_owners == rebuild._vertex_owners, operation
            assert incremental._vertex_distances == rebuild._vertex_distances, operation
            assert nvd.neighbor_map(incremental) == nvd.neighbor_map(rebuild), operation
            for index in incremental.active_object_indexes():
                assert incremental.cell_edges({index}) == rebuild.cell_edges({index})


class TestPopulationCount:
    @pytest.mark.parametrize("maintenance", list(DIAGRAMS))
    def test_len_tracks_the_active_set_through_every_mutation_path(self, maintenance):
        """``len()`` is a counter; it must agree with the scan after every
        step — single repairs, small and bulk batches (duplicate and unknown
        deletes included), a full rebuild."""
        rng = random.Random(46)
        network = grid_network(9, 9, spacing=10.0)
        objects = place_objects(network, 20, seed=35)
        diagram = DIAGRAMS[maintenance](network, objects)
        vertices = network.vertices()
        for step in range(60):
            roll = rng.random()
            active = diagram.active_indexes()
            victims = rng.sample(active, 3)
            if roll < 0.25:
                diagram.insert_object(rng.choice(vertices))
            elif roll < 0.45 and len(active) > 6:
                diagram.remove_object(victims[0])
            elif roll < 0.6:
                diagram.move_object(victims[0], rng.choice(vertices))
            else:
                bulk = roll > 0.85
                inserts = [rng.choice(vertices) for _ in range(9 if bulk else 2)]
                deletes = victims[:2] + victims[:1] + [10_000] if len(active) > 8 else []
                diagram.batch_update(inserts, deletes, [(victims[2], rng.choice(vertices))])
            if step % 20 == 19:
                diagram.full_rebuild()
            assert len(diagram) == diagram.object_count() == scanned_population(diagram)


class TestBatchUpdate:
    def test_small_batch_matches_oracle(self):
        network = random_planar_network(80, extent=1_000.0, seed=12)
        objects = place_objects(network, 10, seed=13)
        diagram = NetworkVoronoiDiagram(network, objects)
        new_indexes, deleted, changed = diagram.batch_update(
            inserts=[network.vertices()[3]],
            deletes=[2],
            moves=[(4, network.vertices()[7])],
        )
        assert len(new_indexes) == 1 and deleted == [2]
        assert changed and all(diagram.is_active(index) for index in changed)
        assert_matches_oracle(diagram, network)

    def test_small_batch_on_a_grid_matches_oracle(self):
        network = grid_network(8, 8, spacing=20.0)
        objects = place_objects(network, 12, seed=19)
        diagram = NetworkVoronoiDiagram(network, objects)
        diagram.batch_update(
            inserts=[network.vertices()[5]],
            deletes=[1],
            moves=[(3, network.vertices()[17]), (7, network.vertices()[44])],
        )
        assert_matches_oracle(diagram, network)

    def test_large_batch_takes_the_bulk_path_and_matches_oracle(self):
        network = random_planar_network(80, extent=1_000.0, seed=14)
        objects = place_objects(network, 10, seed=15)
        diagram = NetworkVoronoiDiagram(network, objects)
        rng = random.Random(16)
        inserts = [rng.choice(network.vertices()) for _ in range(20)]
        new_indexes, deleted, changed = diagram.batch_update(
            inserts=inserts, deletes=[0, 1, 2]
        )
        assert len(new_indexes) == 20 and set(deleted) == {0, 1, 2}
        assert changed == set(diagram.active_object_indexes())
        assert_matches_oracle(diagram, network)

    @pytest.mark.parametrize("n", [20, 80], ids=["floor", "fraction"])
    def test_the_batch_size_alone_picks_the_path(self, n):
        """A burst one short of ``max(16, 0.3 n)`` operations is repaired
        object by object; one of exactly that many takes the single build.
        Either way the diagram equals a from-scratch one."""
        rng = random.Random(n)
        network = grid_network(12, 12, spacing=10.0)
        diagram = NetworkVoronoiDiagram(network, place_objects(network, n, seed=n))
        vertices = network.vertices()
        builds = []
        full_build = diagram._full_build
        diagram._full_build = lambda: (builds.append(None), full_build())
        for above in (False, True):
            threshold = max(16, int(len(diagram) * NetworkVoronoiDiagram.BULK_REBUILD_FRACTION))
            size = threshold - 1 + above
            touched = rng.sample(diagram.active_indexes(), 2 * (size // 3))
            moves = [(index, rng.choice(vertices)) for index in touched[: size // 3]]
            deletes = touched[size // 3 :]
            inserts = [rng.choice(vertices) for _ in range(size - len(moves) - len(deletes))]
            builds.clear()
            diagram.batch_update(inserts, deletes, moves)
            assert len(builds) == above
            assert_matches_oracle(diagram, network)
            owners, neighbors = dict(diagram._vertex_owners), nvd.neighbor_map(diagram)
            diagram.full_rebuild()
            assert (diagram._vertex_owners, nvd.neighbor_map(diagram)) == (owners, neighbors)

    def test_draining_batch_is_rejected(self):
        network = grid_network(3, 3)
        diagram = NetworkVoronoiDiagram(network, [0, 1])
        with pytest.raises(EmptyDatasetError):
            diagram.batch_update(deletes=[0, 1])


class TestGuards:
    def test_remove_last_object_raises(self):
        network = grid_network(3, 3)
        diagram = NetworkVoronoiDiagram(network, [4])
        with pytest.raises(EmptyDatasetError):
            diagram.remove_object(0)

    def test_remove_twice_raises(self):
        network = grid_network(3, 3)
        diagram = NetworkVoronoiDiagram(network, [0, 4])
        diagram.remove_object(0)
        with pytest.raises(QueryError):
            diagram.remove_object(0)

    def test_tombstone_identity_is_stable(self):
        network = grid_network(4, 4)
        diagram = NetworkVoronoiDiagram(network, [0, 5, 15])
        diagram.remove_object(1)
        index, _ = diagram.insert_object(10)
        assert index == 3  # tombstone index 1 is never reused
        assert not diagram.is_active(1)
        assert diagram.active_object_indexes() == [0, 2, 3]

    def test_move_to_same_vertex_is_a_noop(self):
        network = grid_network(4, 4)
        diagram = NetworkVoronoiDiagram(network, [0, 15])
        assert diagram.move_object(0, 0) == set()
