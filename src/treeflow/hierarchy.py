"""Hierarchy metadata model: nodes, validation, and the pruned-tree count.

A hierarchy is a flat record list (one row per node) forming a rooted tree.
Levels are 1-based with the root at level 1.  ``child_index`` is the
zero-based bit position of a node inside its parent's bitmask; ``width_class``
is the capacity of the node's *own* children bitmask.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .bitmask import WidthClass

# Guard for remaining_after_prune: inputs whose totals would not fit a signed
# 64-bit integer are rejected rather than silently growing unbounded.
INT_RANGE_MAX = 2**63 - 1


class HierarchyError(ValueError):
    """Invalid hierarchy document."""


class NodeStatus(enum.IntEnum):
    UNPROCESSED = 0
    IN_PROGRESS = 1
    FINALIZED = 2


@dataclass(frozen=True)
class HierarchyNode:
    id: int
    name: str
    width_class: WidthClass
    parent_id: int | None
    child_index: int
    level: int
    name_type_id: int | None = None


@dataclass
class Hierarchy:
    """Validated rooted tree over HierarchyNode records."""

    nodes: dict[int, HierarchyNode]
    root_id: int
    max_level: int
    _children: dict[int, list[int]] = field(default_factory=dict, repr=False)
    _levels: dict[int, list[int]] = field(default_factory=dict, repr=False)

    def node(self, node_id: int) -> HierarchyNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise HierarchyError(f"unknown node id {node_id}") from None

    @property
    def root(self) -> HierarchyNode:
        return self.nodes[self.root_id]

    def parent(self, node_id: int) -> HierarchyNode | None:
        pid = self.node(node_id).parent_id
        return None if pid is None else self.nodes[pid]

    def children(self, node_id: int) -> list[HierarchyNode]:
        """Children ordered by child_index ascending."""
        return [self.nodes[c] for c in self._children.get(node_id, [])]

    def level(self, k: int) -> list[HierarchyNode]:
        """All nodes at depth ``k`` (1-based), ordered by id."""
        return [self.nodes[i] for i in self._levels.get(k, [])]

    def levels(self) -> list[int]:
        return sorted(self._levels)

    def subtree_ids(self, node_id: int) -> set[int]:
        """The node itself and all its descendants."""
        out = {node_id}
        stack = [node_id]
        while stack:
            for c in self._children.get(stack.pop(), []):
                out.add(c)
                stack.append(c)
        return out

    def ancestors(self, node_id: int) -> list[HierarchyNode]:
        """Chain of ancestors from parent up to the root."""
        out = []
        cur = self.parent(node_id)
        while cur is not None:
            out.append(cur)
            cur = self.parent(cur.id) if cur.parent_id is not None else None
        return out

    def __len__(self) -> int:
        return len(self.nodes)


def _parse_row(row: dict, widths: dict[str, WidthClass]) -> HierarchyNode:
    """``widths`` caches each ``width_class`` string already parsed."""
    required = ("id", "name", "parent_id", "child_index", "level", "width_class")
    for key in required:
        if key not in row:
            raise HierarchyError(f"row missing field {key!r}: {row!r}")
    # Fields are converted in the order id, name, width_class, parent_id,
    # child_index, level, so a row with several bad fields always reports
    # the first of them; positional arguments keep the frozen dataclass's
    # __init__ cheap.
    node_id = int(row["id"])
    name = str(row["name"])
    name_type_id = row.get("name_type_id")
    text = row["width_class"]
    width = widths.get(text) if text.__class__ is str else None
    if width is None:
        width = widths[text] = WidthClass.parse(text)
    return HierarchyNode(
        node_id,
        name,
        width,
        None if row["parent_id"] is None else int(row["parent_id"]),
        int(row["child_index"]),
        int(row["level"]),
        name_type_id,
    )


def load_hierarchy(source: str | Path | list[dict]) -> Hierarchy:
    """Load and validate a hierarchy from JSON text, a path, or parsed rows.

    Raises HierarchyError on: duplicate ids, dangling parents, child-index
    collisions, child_index beyond the parent's capacity, level inconsistent
    with the parent, multiple roots, or parent-link cycles.
    """
    if isinstance(source, Path):
        rows = json.loads(source.read_text())
    elif isinstance(source, str):
        stripped = source.lstrip()
        if stripped.startswith("[") or stripped.startswith("{"):
            rows = json.loads(source)
        else:
            rows = json.loads(Path(source).read_text())
    else:
        rows = source
    if not isinstance(rows, list) or not rows:
        raise HierarchyError("hierarchy document must be a non-empty list of rows")

    nodes: dict[int, HierarchyNode] = {}
    widths: dict[str, WidthClass] = {}
    for row in rows:
        node = _parse_row(row, widths)
        if node.id in nodes:
            raise HierarchyError(f"duplicate node id {node.id}")
        nodes[node.id] = node

    roots = [n for n in nodes.values() if n.parent_id is None]
    if not roots:
        raise HierarchyError("no root node (every node has a parent)")
    if len(roots) > 1:
        raise HierarchyError(
            f"multiple roots: {sorted(n.id for n in roots)}"
        )
    root = roots[0]
    if root.level != 1:
        raise HierarchyError(f"root {root.id} must be level 1, got {root.level}")

    for n in nodes.values():
        if n.parent_id is not None and n.parent_id not in nodes:
            raise HierarchyError(f"node {n.id} has dangling parent {n.parent_id}")

    # Cycle check on the parent links before relying on levels.  Levels that
    # rise by one along every parent link rule out a cycle (it would need a
    # node deeper than itself), so the walk runs only when some link breaks
    # that; the level error itself is raised below, after the walk has had
    # the chance to report a cycle first.
    levels_consistent = all(
        nodes[n.parent_id].level == n.level - 1
        for n in nodes.values()
        if n.parent_id is not None
    )
    if not levels_consistent:
        for n in nodes.values():
            seen = {n.id}
            cur = n
            while cur.parent_id is not None:
                if cur.parent_id in seen:
                    raise HierarchyError(f"cycle detected through node {cur.parent_id}")
                seen.add(cur.parent_id)
                cur = nodes[cur.parent_id]

    children: dict[int, list[int]] = {}
    # One int per parent with a bit set for every child_index taken so far.
    occupied: dict[int, int] = {}
    for n in sorted(nodes.values(), key=lambda x: x.id):
        if n.parent_id is None:
            continue
        parent = nodes[n.parent_id]
        if n.level != parent.level + 1:
            raise HierarchyError(
                f"node {n.id} level {n.level} inconsistent with parent "
                f"{parent.id} level {parent.level}"
            )
        if n.child_index < 0:
            raise HierarchyError(f"node {n.id} has negative child_index")
        if n.child_index >= parent.width_class.capacity:
            raise HierarchyError(
                f"node {n.id} child_index {n.child_index} >= capacity "
                f"{parent.width_class.capacity} of parent {parent.id}"
            )
        siblings = children.setdefault(parent.id, [])
        bit = 1 << n.child_index
        taken = occupied.get(parent.id, 0)
        if taken & bit:
            sib = next(c for c in siblings if nodes[c].child_index == n.child_index)
            raise HierarchyError(
                f"child_index collision under parent {parent.id}: "
                f"{sib} and {n.id} both at {n.child_index}"
            )
        occupied[parent.id] = taken | bit
        siblings.append(n.id)
    for c in children.values():
        c.sort(key=lambda i: nodes[i].child_index)

    levels: dict[int, list[int]] = {}
    for n in nodes.values():
        levels.setdefault(n.level, []).append(n.id)
    for ids in levels.values():
        ids.sort()
    max_level = max(levels)
    for k in range(1, max_level + 1):
        if k not in levels:
            raise HierarchyError(f"level {k} is empty but max level is {max_level}")

    return Hierarchy(
        nodes=nodes,
        root_id=root.id,
        max_level=max_level,
        _children=children,
        _levels=levels,
    )


def dump_hierarchy(h: Hierarchy) -> list[dict]:
    """Inverse of load_hierarchy: flat record list with exact field names."""
    rows = []
    for n in sorted(h.nodes.values(), key=lambda x: x.id):
        rows.append(
            {
                "id": n.id,
                "name": n.name,
                "name_type_id": n.name_type_id,
                "width_class": n.width_class.serialize(),
                "parent_id": n.parent_id,
                "child_index": n.child_index,
                "level": n.level,
            }
        )
    return rows


def remaining_after_prune(n: int, h: int) -> tuple[int, int, Fraction]:
    """Node counts of a perfect n-ary tree of height h after removing the
    deepest two levels (the leaves and their parents).

    Returns (total, remaining, remaining/total).
    """
    if n < 2:
        raise ValueError(f"branching factor must be >= 2, got {n}")
    if h < 2:
        raise ValueError(f"height must be >= 2, got {h}")
    total = (n ** (h + 1) - 1) // (n - 1)
    if total > INT_RANGE_MAX:
        raise OverflowError(
            f"total node count for n={n}, h={h} exceeds the supported range"
        )
    remaining = total - (n**h + n ** (h - 1))
    return total, remaining, Fraction(remaining, total)
