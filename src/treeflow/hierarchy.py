"""Hierarchy metadata model: nodes, validation, and the pruned-tree count.

A hierarchy is a flat record list (one row per node) forming a rooted tree.
Levels are 1-based with the root at level 1.  ``child_index`` is the
zero-based bit position of a node inside its parent's bitmask; ``width_class``
is the capacity of the node's *own* children bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, NamedTuple

from .bitmask import BitmaskError, WidthClass
from .jsondoc import JSONDocumentError, decode_json

# Guard for remaining_after_prune: inputs whose totals would not fit a signed
# 64-bit integer are rejected rather than silently growing unbounded.
INT_RANGE_MAX = 2**63 - 1


class HierarchyError(ValueError):
    """Invalid hierarchy document."""


class HierarchyNode(NamedTuple):
    """One node row; a tuple, so it is immutable, hashable and equal by value."""

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


# Checked in this order, so a row with several problems reports the first.
_REQUIRED = ("id", "name", "parent_id", "child_index", "level", "width_class")
_INTEGERS = (("id", False), ("parent_id", True), ("child_index", False), ("level", False),
             ("name_type_id", True))


def _integer_error(index: int, row: dict) -> HierarchyError:
    """Names the first field of ``_INTEGERS`` whose value has the wrong type."""
    for key, nullable in _INTEGERS:
        value = row.get(key)
        if value.__class__ is not int and not (nullable and value is None):
            break
    kind = "an integer or null" if nullable else "an integer"
    return HierarchyError(f"rows[{index}].{key}: must be {kind}, got {value!r}")


def _parse_row(index: int, row: dict, widths: dict[str, WidthClass]) -> HierarchyNode:
    """Row ``index`` of the document as a node; ``widths`` caches each
    ``width_class`` string already parsed.  Errors name the row and the
    field: ``rows[3].level: must be an integer, got None``."""
    if not isinstance(row, dict):
        raise HierarchyError(f"rows[{index}]: must be an object, got {type(row).__name__}")
    for key in _REQUIRED:
        if key not in row:
            raise HierarchyError(f"rows[{index}]: missing field {key!r}")
    node_id, parent_id = row["id"], row["parent_id"]
    child_index, level = row["child_index"], row["level"]
    name_type_id = row.get("name_type_id")
    # bool is a subclass of int, so the exact class is tested.
    if not (
        node_id.__class__ is int
        and (parent_id is None or parent_id.__class__ is int)
        and child_index.__class__ is int
        and level.__class__ is int
        and (name_type_id is None or name_type_id.__class__ is int)
    ):
        raise _integer_error(index, row)
    name = row["name"]
    if name.__class__ is not str:
        raise HierarchyError(f"rows[{index}].name: must be a string, got {name!r}")
    text = row["width_class"]
    if text.__class__ is not str:
        raise HierarchyError(f"rows[{index}].width_class: must be a string, got {text!r}")
    width = widths.get(text)
    if width is None:
        try:
            width = widths[text] = WidthClass.parse(text)
        except BitmaskError as exc:
            raise HierarchyError(f"rows[{index}].width_class: {exc}") from None
    return HierarchyNode(node_id, name, width, parent_id, child_index, level, name_type_id)


def load_hierarchy(source: str | Path | list[dict]) -> Hierarchy:
    """Load and validate a hierarchy from JSON text, a path, or parsed rows.

    Raises HierarchyError on: invalid JSON, a row that is not an object,
    lacks a field or has a field of the wrong type (naming the row index and
    the field), duplicate ids, dangling parents, child-index collisions,
    child_index beyond the parent's capacity, level inconsistent with the
    parent, multiple roots, or parent-link cycles.  Errors of a document
    read from a file start with its path:
    ``tree.json: rows[3].level: must be an integer, got None``.
    """
    if isinstance(source, str):
        stripped = source.lstrip()
        if stripped.startswith("[") or stripped.startswith("{"):
            return _build(_decode(source))
        source = Path(source)
    if isinstance(source, Path):
        try:
            return _build(_decode(source.read_text()))
        except HierarchyError as exc:
            raise HierarchyError(f"{source}: {exc}") from None
    return _build(source)


def _decode(text: str) -> Any:
    try:
        return decode_json(text)
    except JSONDocumentError as exc:
        raise HierarchyError(str(exc)) from None


def _build(rows: Any) -> Hierarchy:
    """Validate parsed rows in three passes: the rows in document order
    (parse, duplicate ids, roots), the nodes in document order (dangling
    parents, level consistency), and the nodes in id order (level,
    child_index, capacity and collisions, filling the children and levels
    indexes)."""
    if not isinstance(rows, list) or not rows:
        raise HierarchyError("hierarchy document must be a non-empty list of rows")

    nodes: dict[int, HierarchyNode] = {}
    widths: dict[str, WidthClass] = {}
    roots: list[HierarchyNode] = []
    for index, row in enumerate(rows):
        node = _parse_row(index, row, widths)
        if node.id in nodes:
            raise HierarchyError(f"duplicate node id {node.id}")
        nodes[node.id] = node
        if node.parent_id is None:
            roots.append(node)

    if not roots:
        raise HierarchyError("no root node (every node has a parent)")
    if len(roots) > 1:
        raise HierarchyError(
            f"multiple roots: {sorted(n.id for n in roots)}"
        )
    root = roots[0]
    if root.level != 1:
        raise HierarchyError(f"root {root.id} must be level 1, got {root.level}")

    levels_consistent = True
    for n in nodes.values():
        if n.parent_id is not None:
            parent = nodes.get(n.parent_id)
            if parent is None:
                raise HierarchyError(f"node {n.id} has dangling parent {n.parent_id}")
            if parent.level != n.level - 1:
                levels_consistent = False

    # Cycle check on the parent links before relying on levels.  Levels that
    # rise by one along every parent link rule out a cycle (it would need a
    # node deeper than itself), so the walk runs only when some link breaks
    # that; the level error itself is raised below, after the walk has had
    # the chance to report a cycle first.
    if not levels_consistent:
        for n in nodes.values():
            seen = {n.id}
            cur = n
            while cur.parent_id is not None:
                if cur.parent_id in seen:
                    raise HierarchyError(f"cycle detected through node {cur.parent_id}")
                seen.add(cur.parent_id)
                cur = nodes[cur.parent_id]

    # Per parent: its capacity, read once, and its children by child_index.
    capacity: dict[int, int] = {}
    slots: dict[int, dict[int, int]] = {}
    levels: dict[int, list[int]] = {}
    for node_id in sorted(nodes):
        n = nodes[node_id]
        pid = n.parent_id
        if pid is not None:
            parent = nodes[pid]
            if n.level != parent.level + 1:
                raise HierarchyError(
                    f"node {node_id} level {n.level} inconsistent with parent "
                    f"{pid} level {parent.level}"
                )
            ci = n.child_index
            if ci < 0:
                raise HierarchyError(f"node {node_id} has negative child_index")
            taken = slots.get(pid)
            if taken is None:
                taken = slots[pid] = {}
                capacity[pid] = parent.width_class.capacity
            if ci >= capacity[pid]:
                raise HierarchyError(
                    f"node {node_id} child_index {ci} >= capacity "
                    f"{capacity[pid]} of parent {pid}"
                )
            if ci in taken:
                raise HierarchyError(
                    f"child_index collision under parent {pid}: "
                    f"{taken[ci]} and {node_id} both at {ci}"
                )
            taken[ci] = node_id
        levels.setdefault(n.level, []).append(node_id)
    children = {pid: [taken[ci] for ci in sorted(taken)] for pid, taken in slots.items()}

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
