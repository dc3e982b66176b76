"""An R-tree over 2-D points.

Supports the operations the INSQ system needs from its disk-oriented index
(here kept in memory):

* STR (sort-tile-recursive) bulk loading for the initial data set,
* single insertion and deletion for data-object updates,
* bounding-box range queries,
* best-first incremental k nearest neighbour search (the classic
  Hjaltason–Samet priority-queue algorithm), which is what the plane
  baselines' retrievals use (the VoR-tree locates by its neighbour lists).

The implementation counts node accesses so the benchmarks can report an
I/O-like cost measure alongside wall-clock time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, QueryError
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox


@dataclass
class RTreeEntry:
    """A leaf entry: a point with an opaque payload (usually an object id)."""

    point: Point
    payload: Any = None

    def __post_init__(self):
        # Entries are immutable in practice (a move is delete + insert),
        # so the degenerate box is computed once — box math is the R-tree
        # maintenance hot path.
        self.box: BoundingBox = BoundingBox.from_point(self.point)


class _Node:
    """Internal R-tree node.

    Leaf nodes hold :class:`RTreeEntry` objects; internal nodes hold child
    ``_Node`` objects.  Every node caches its MBR.
    """

    __slots__ = ("leaf", "children", "entries", "box")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.children: List["_Node"] = []
        self.entries: List[RTreeEntry] = []
        self.box: BoundingBox = BoundingBox.empty()

    def recompute_box(self) -> None:
        # Folds the coordinate min/max directly instead of allocating one
        # union box per item; bit-identical to the union chain (ties keep
        # the earlier value, exactly like min()/max()).
        if self.leaf:
            if not self.entries:
                self.box = BoundingBox.empty()
                return
            p = self.entries[0].point
            min_x = max_x = p.x
            min_y = max_y = p.y
            for entry in self.entries[1:]:
                p = entry.point
                if p.x < min_x:
                    min_x = p.x
                elif p.x > max_x:
                    max_x = p.x
                if p.y < min_y:
                    min_y = p.y
                elif p.y > max_y:
                    max_y = p.y
        else:
            if not self.children:
                self.box = BoundingBox.empty()
                return
            b = self.children[0].box
            min_x, min_y, max_x, max_y = b.min_x, b.min_y, b.max_x, b.max_y
            for child in self.children[1:]:
                b = child.box
                if b.min_x < min_x:
                    min_x = b.min_x
                if b.min_y < min_y:
                    min_y = b.min_y
                if b.max_x > max_x:
                    max_x = b.max_x
                if b.max_y > max_y:
                    max_y = b.max_y
        self.box = BoundingBox(min_x, min_y, max_x, max_y)

    def item_count(self) -> int:
        return len(self.entries) if self.leaf else len(self.children)


class RTree:
    """An in-memory R-tree over 2-D points.

    Args:
        max_entries: node capacity (defaults to 16, a typical page fan-out
            for small in-memory experiments).
        min_entries: minimum fill factor after a split; defaults to
            ``max_entries // 3`` (at least 2).
    """

    def __init__(self, max_entries: int = 16, min_entries: Optional[int] = None):
        if max_entries < 4:
            raise ConfigurationError("max_entries must be at least 4")
        self._max_entries = max_entries
        self._min_entries = min_entries if min_entries is not None else max(2, max_entries // 3)
        if self._min_entries < 1 or self._min_entries > max_entries // 2:
            raise ConfigurationError("min_entries must be in [1, max_entries // 2]")
        self._root = _Node(leaf=True)
        self._size = 0
        self._node_accesses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def node_accesses(self) -> int:
        """Number of nodes touched by queries since the last reset."""
        return self._node_accesses

    def reset_counters(self) -> None:
        """Reset the node-access counter."""
        self._node_accesses = 0

    @property
    def height(self) -> int:
        """Tree height (1 for a single leaf root)."""
        height = 1
        node = self._root
        while not node.leaf:
            height += 1
            node = node.children[0]
        return height

    def entries(self) -> Iterator[RTreeEntry]:
        """Iterate over all leaf entries."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                yield from node.entries
            else:
                stack.extend(node.children)

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        entries: Sequence[RTreeEntry],
        max_entries: int = 16,
        min_entries: Optional[int] = None,
    ) -> "RTree":
        """Build an R-tree with STR (sort-tile-recursive) packing.

        STR sorts entries by x, partitions them into vertical slabs, sorts
        each slab by y and packs consecutive runs into leaves, then builds
        the upper levels the same way over node centers.
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries)
        if not entries:
            return tree
        leaves = tree._pack_leaves(list(entries))
        tree._root = tree._pack_upper_levels(leaves)
        tree._size = len(entries)
        return tree

    def _pack_leaves(self, entries: List[RTreeEntry]) -> List[_Node]:
        capacity = self._max_entries
        count = len(entries)
        leaf_count = math.ceil(count / capacity)
        slab_count = max(1, math.ceil(math.sqrt(leaf_count)))
        per_slab = math.ceil(count / slab_count)
        entries_sorted = sorted(entries, key=lambda e: (e.point.x, e.point.y))
        leaves: List[_Node] = []
        for slab_start in range(0, count, per_slab):
            slab = sorted(
                entries_sorted[slab_start : slab_start + per_slab],
                key=lambda e: (e.point.y, e.point.x),
            )
            for leaf_start in range(0, len(slab), capacity):
                node = _Node(leaf=True)
                node.entries = slab[leaf_start : leaf_start + capacity]
                node.recompute_box()
                leaves.append(node)
        return leaves

    def _pack_upper_levels(self, nodes: List[_Node]) -> _Node:
        while len(nodes) > 1:
            capacity = self._max_entries
            count = len(nodes)
            parent_count = math.ceil(count / capacity)
            slab_count = max(1, math.ceil(math.sqrt(parent_count)))
            per_slab = math.ceil(count / slab_count)
            nodes_sorted = sorted(nodes, key=lambda n: (n.box.center.x, n.box.center.y))
            parents: List[_Node] = []
            for slab_start in range(0, count, per_slab):
                slab = sorted(
                    nodes_sorted[slab_start : slab_start + per_slab],
                    key=lambda n: (n.box.center.y, n.box.center.x),
                )
                for group_start in range(0, len(slab), capacity):
                    parent = _Node(leaf=False)
                    parent.children = slab[group_start : group_start + capacity]
                    parent.recompute_box()
                    parents.append(parent)
            nodes = parents
        return nodes[0] if nodes else _Node(leaf=True)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, point: Point, payload: Any = None) -> None:
        """Insert a point with an optional payload."""
        entry = RTreeEntry(point, payload)
        split = self._insert_recursive(self._root, entry)
        if split is not None:
            new_root = _Node(leaf=False)
            new_root.children = [self._root, split]
            new_root.recompute_box()
            self._root = new_root
        self._size += 1

    def _insert_recursive(self, node: _Node, entry: RTreeEntry) -> Optional[_Node]:
        if node.leaf:
            node.entries.append(entry)
            node.recompute_box()
            if len(node.entries) > self._max_entries:
                return self._split_leaf(node)
            return None
        child = self._choose_subtree(node, entry.box)
        split = self._insert_recursive(child, entry)
        if split is not None:
            node.children.append(split)
        node.recompute_box()
        if len(node.children) > self._max_entries:
            return self._split_internal(node)
        return None

    def _choose_subtree(self, node: _Node, box: BoundingBox) -> _Node:
        # Inline (enlargement, area) arithmetic: every box here is
        # non-empty, so the union/clamp shortcuts in BoundingBox are
        # identity and the floats (hence the chosen child) are
        # bit-identical to the property-based computation.
        bx0, by0, bx1, by1 = box.min_x, box.min_y, box.max_x, box.max_y
        best = None
        best_enlargement = best_area = math.inf
        for child in node.children:
            b = child.box
            min_x = b.min_x if b.min_x <= bx0 else bx0
            min_y = b.min_y if b.min_y <= by0 else by0
            max_x = b.max_x if b.max_x >= bx1 else bx1
            max_y = b.max_y if b.max_y >= by1 else by1
            area = (b.max_x - b.min_x) * (b.max_y - b.min_y)
            enlargement = (max_x - min_x) * (max_y - min_y) - area
            if (
                best is None
                or enlargement < best_enlargement
                or (enlargement == best_enlargement and area < best_area)
            ):
                best_enlargement = enlargement
                best_area = area
                best = child
        assert best is not None
        return best

    def _split_leaf(self, node: _Node) -> _Node:
        groups = self._quadratic_split(
            node.entries, lambda e: e.box, self._min_entries
        )
        node.entries = groups[0]
        node.recompute_box()
        sibling = _Node(leaf=True)
        sibling.entries = groups[1]
        sibling.recompute_box()
        return sibling

    def _split_internal(self, node: _Node) -> _Node:
        groups = self._quadratic_split(
            node.children, lambda c: c.box, self._min_entries
        )
        node.children = groups[0]
        node.recompute_box()
        sibling = _Node(leaf=False)
        sibling.children = groups[1]
        sibling.recompute_box()
        return sibling

    @staticmethod
    def _quadratic_split(items: List[Any], box_of, min_entries: int) -> Tuple[List[Any], List[Any]]:
        """Guttman's quadratic split of an overflowing item list into two groups.

        The box arithmetic is inlined over cached per-item boxes: every
        box involved is non-empty, so the union/clamp shortcuts in
        :class:`BoundingBox` are identity and the resulting floats (hence
        the grouping) are bit-identical to the property-based version.
        """
        boxes = [box_of(item) for item in items]
        areas = [(b.max_x - b.min_x) * (b.max_y - b.min_y) for b in boxes]

        def enlargement(group_box, group_area, b):
            min_x = group_box.min_x if group_box.min_x <= b.min_x else b.min_x
            min_y = group_box.min_y if group_box.min_y <= b.min_y else b.min_y
            max_x = group_box.max_x if group_box.max_x >= b.max_x else b.max_x
            max_y = group_box.max_y if group_box.max_y >= b.max_y else b.max_y
            return (max_x - min_x) * (max_y - min_y) - group_area

        # Pick the pair of seeds wasting the most area if grouped together.
        worst_pair = (0, 1)
        worst_waste = -math.inf
        for i, j in itertools.combinations(range(len(items)), 2):
            a, b = boxes[i], boxes[j]
            min_x = a.min_x if a.min_x <= b.min_x else b.min_x
            min_y = a.min_y if a.min_y <= b.min_y else b.min_y
            max_x = a.max_x if a.max_x >= b.max_x else b.max_x
            max_y = a.max_y if a.max_y >= b.max_y else b.max_y
            waste = (max_x - min_x) * (max_y - min_y) - areas[i] - areas[j]
            if waste > worst_waste:
                worst_waste = waste
                worst_pair = (i, j)
        first_group = [items[worst_pair[0]]]
        second_group = [items[worst_pair[1]]]
        first_box = boxes[worst_pair[0]]
        second_box = boxes[worst_pair[1]]
        first_area = areas[worst_pair[0]]
        second_area = areas[worst_pair[1]]
        remaining = [
            (item, boxes[idx])
            for idx, item in enumerate(items)
            if idx not in worst_pair
        ]
        while remaining:
            # If one group must take everything left to reach the minimum, do so.
            if len(first_group) + len(remaining) <= min_entries:
                first_group.extend(item for item, _ in remaining)
                break
            if len(second_group) + len(remaining) <= min_entries:
                second_group.extend(item for item, _ in remaining)
                break
            # Otherwise assign the item with the strongest preference.
            best_index = 0
            best_difference = -math.inf
            best_d1 = best_d2 = 0.0
            for index, (item, b) in enumerate(remaining):
                d1 = enlargement(first_box, first_area, b)
                d2 = enlargement(second_box, second_area, b)
                if abs(d1 - d2) > best_difference:
                    best_difference = abs(d1 - d2)
                    best_index = index
                    best_d1, best_d2 = d1, d2
            item, b = remaining.pop(best_index)
            d1, d2 = best_d1, best_d2
            if (d1, first_area, len(first_group)) <= (d2, second_area, len(second_group)):
                first_group.append(item)
                first_box = first_box.union(b)
                first_area = (first_box.max_x - first_box.min_x) * (
                    first_box.max_y - first_box.min_y
                )
            else:
                second_group.append(item)
                second_box = second_box.union(b)
                second_area = (second_box.max_x - second_box.min_x) * (
                    second_box.max_y - second_box.min_y
                )
        return first_group, second_group

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, point: Point, payload: Any = None) -> bool:
        """Delete one entry matching ``point`` (and ``payload`` when given).

        Returns True when an entry was removed.  Underfull leaves are handled
        by re-inserting their remaining entries (the classic "condense tree"
        simplification for point data).
        """
        leaf_path = self._find_leaf(self._root, point, payload, [])
        if leaf_path is None:
            return False
        leaf = leaf_path[-1]
        for index, entry in enumerate(leaf.entries):
            if entry.point == point and (payload is None or entry.payload == payload):
                del leaf.entries[index]
                break
        self._size -= 1
        orphans: List[RTreeEntry] = []
        self._condense(leaf_path, orphans)
        for entry in orphans:
            # Re-insert orphans without incrementing size (they were counted).
            split = self._insert_recursive(self._root, entry)
            if split is not None:
                new_root = _Node(leaf=False)
                new_root.children = [self._root, split]
                new_root.recompute_box()
                self._root = new_root
        if not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
        return True

    def _find_leaf(
        self, node: _Node, point: Point, payload: Any, path: List[_Node]
    ) -> Optional[List[_Node]]:
        path = path + [node]
        if node.leaf:
            for entry in node.entries:
                if entry.point == point and (payload is None or entry.payload == payload):
                    return path
            return None
        for child in node.children:
            if child.box.contains_point(point):
                found = self._find_leaf(child, point, payload, path)
                if found is not None:
                    return found
        return None

    def _condense(self, path: List[_Node], orphans: List[RTreeEntry]) -> None:
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            if node.item_count() < self._min_entries:
                parent.children.remove(node)
                orphans.extend(self._collect_entries(node))
            node.recompute_box()
        path[0].recompute_box()

    def _collect_entries(self, node: _Node) -> List[RTreeEntry]:
        if node.leaf:
            return list(node.entries)
        collected: List[RTreeEntry] = []
        for child in node.children:
            collected.extend(self._collect_entries(child))
        return collected

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_search(self, box: BoundingBox) -> List[RTreeEntry]:
        """All entries whose point lies inside ``box``."""
        results: List[RTreeEntry] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self._node_accesses += 1
            if not node.box.intersects(box) and node is not self._root:
                continue
            if node.leaf:
                results.extend(e for e in node.entries if box.contains_point(e.point))
            else:
                stack.extend(c for c in node.children if c.box.intersects(box))
        return results

    def nearest_neighbors(self, query: Point, k: int) -> List[Tuple[float, RTreeEntry]]:
        """The ``k`` entries nearest to ``query`` as ``(distance, entry)`` pairs."""
        return list(itertools.islice(self.incremental_nearest(query), k))

    def incremental_nearest(self, query: Point) -> Iterator[Tuple[float, RTreeEntry]]:
        """Yield entries in increasing distance from ``query`` (best-first).

        This is the incremental kNN search the plane baselines' retrievals
        are built on: callers can stop pulling results as soon as they have
        enough.
        """
        if self._size == 0:
            return
        counter = itertools.count()
        heap: List[Tuple[float, int, bool, Any]] = [
            (self._root.box.min_distance_to_point(query), next(counter), False, self._root)
        ]
        while heap:
            distance, _, is_entry, item = heapq.heappop(heap)
            if is_entry:
                yield distance, item
                continue
            node: _Node = item
            self._node_accesses += 1
            if node.leaf:
                for entry in node.entries:
                    heapq.heappush(
                        heap,
                        (entry.point.distance_to(query), next(counter), True, entry),
                    )
            else:
                for child in node.children:
                    heapq.heappush(
                        heap,
                        (child.box.min_distance_to_point(query), next(counter), False, child),
                    )

    def nearest_payloads(self, query: Point, k: int) -> List[Any]:
        """Convenience wrapper returning only the payloads of the k nearest entries."""
        if k <= 0:
            raise QueryError("k must be positive")
        return [entry.payload for _, entry in self.nearest_neighbors(query, k)]
