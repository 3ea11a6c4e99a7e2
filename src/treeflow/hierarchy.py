"""Hierarchy metadata model: nodes, validation, and the pruned-tree count.

A hierarchy is a flat record list (one row per node) forming a rooted tree.
Levels are 1-based with the root at level 1.  ``child_index`` is the
zero-based bit position of a node inside its parent's bitmask; ``width_class``
is the capacity of the node's *own* children bitmask.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, NamedTuple

from .bitmask import BitmaskError, WidthClass
from .jsondoc import JSONDocumentError, decode_json, read_text

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

    def child_ids(self, node_id: int) -> Sequence[int]:
        """The ids of ``children(node_id)``, in the same order, without a
        list built per call; the caller must not change them."""
        return self._children.get(node_id, ())

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
_new_node = tuple.__new__


def _row_error(index: int, row: Any) -> HierarchyError:
    """The first fault of a row the row loop refused: its type, then the
    missing fields in ``_REQUIRED`` order, the integer fields in
    ``_INTEGERS`` order, then ``name`` and ``width_class``.  Errors name the
    row and the field: ``rows[3].level: must be an integer, got None``."""
    if not isinstance(row, dict):
        return HierarchyError(f"rows[{index}]: must be an object, got {type(row).__name__}")
    for key in _REQUIRED:
        if key not in row:
            return HierarchyError(f"rows[{index}]: missing field {key!r}")
    for key, nullable in _INTEGERS:
        value = row.get(key)
        if value.__class__ is not int and not (nullable and value is None):
            kind = "an integer or null" if nullable else "an integer"
            return HierarchyError(f"rows[{index}].{key}: must be {kind}, got {value!r}")
    key = "name" if row["name"].__class__ is not str else "width_class"
    return HierarchyError(f"rows[{index}].{key}: must be a string, got {row[key]!r}")


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
            return _build(_decode(read_text(source)))
        except (HierarchyError, JSONDocumentError) as exc:
            raise HierarchyError(f"{source}: {exc}") from None
    return _build(source)


def _decode(text: str) -> Any:
    try:
        return decode_json(text)
    except JSONDocumentError as exc:
        raise HierarchyError(str(exc)) from None


def _build(rows: Any) -> Hierarchy:
    """Validate parsed rows in two passes.  The row pass, in document order,
    reads each row's fields with a few inline checks (a faulty row goes to
    ``_row_error``), rejects a duplicate id and collects the roots.  The
    structural pass, in id order, checks each node's parent, level,
    child_index, capacity (read once per parent) and collisions, and fills
    the children and levels indexes.  At its first fault, ``_link_error``
    looks for the faults reported before any in id order: a dangling parent
    in document order, then a parent-link cycle.  Only a faulty document
    pays for that second reading."""
    if not isinstance(rows, list) or not rows:
        raise HierarchyError("hierarchy document must be a non-empty list of rows")

    nodes: dict[int, HierarchyNode] = {}
    widths: dict[str, WidthClass] = {}
    roots: list[HierarchyNode] = []
    for index, row in enumerate(rows):
        # A dict subclass is read only once every field is in it: a
        # defaultdict would make a missing one up.
        if row.__class__ is not dict and not (
                isinstance(row, dict) and all(key in row for key in _REQUIRED)):
            raise _row_error(index, row)
        try:
            node_id, name, parent_id = row["id"], row["name"], row["parent_id"]
            child_index, level, text = row["child_index"], row["level"], row["width_class"]
        except KeyError:
            raise _row_error(index, row) from None
        name_type_id = row.get("name_type_id")
        # bool is a subclass of int, so the exact class is tested.
        if not (
            node_id.__class__ is int
            and (parent_id is None or parent_id.__class__ is int)
            and child_index.__class__ is int
            and level.__class__ is int
            and (name_type_id is None or name_type_id.__class__ is int)
            and name.__class__ is str
            and text.__class__ is str
        ):
            raise _row_error(index, row)
        width = widths.get(text)
        if width is None:
            try:
                width = widths[text] = WidthClass.parse(text)
            except BitmaskError as exc:
                raise HierarchyError(f"rows[{index}].width_class: {exc}") from None
        if node_id in nodes:
            raise HierarchyError(f"duplicate node id {node_id}")
        # The tuple itself: the NamedTuple constructor would only add a call.
        node = nodes[node_id] = _new_node(
            HierarchyNode, (node_id, name, width, parent_id, child_index, level, name_type_id))
        if parent_id is None:
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

    # Per parent: the level its children must have, its capacity and its
    # children by child_index.
    slots: dict[int, tuple[int, int, dict[int, int]]] = {}
    levels: dict[int, list[int]] = {}
    for node_id in sorted(nodes):
        _, _, _, pid, ci, level, _ = nodes[node_id]
        if pid is not None:
            slot = slots.get(pid)
            if slot is None:
                parent = nodes.get(pid)
                if parent is None:
                    raise _link_error(nodes)
                slot = slots[pid] = (parent.level + 1, parent.width_class.capacity, {})
            want, cap, taken = slot
            if level != want or ci < 0 or ci >= cap or ci in taken:
                # A dangling parent or a cycle is reported before any fault
                # in id order; else this node's first fault.
                raise _link_error(nodes) or HierarchyError(
                    f"node {node_id} level {level} inconsistent with parent {pid} level {want - 1}"
                    if level != want else
                    f"node {node_id} has negative child_index" if ci < 0 else
                    f"node {node_id} child_index {ci} >= capacity {cap} of parent {pid}" if ci >= cap else
                    f"child_index collision under parent {pid}: {taken[ci]} and {node_id} "
                    f"both at {ci}")
            taken[ci] = node_id
        kin = levels.get(level)
        if kin is None:
            levels[level] = [node_id]
        else:
            kin.append(node_id)
    children = {pid: [taken[ci] for ci in sorted(taken)] for pid, (_, _, taken) in slots.items()}
    # No level between 1 and the deepest is empty: each node's ancestors, one
    # level apart up to the root, fill every level above it.
    return Hierarchy(
        nodes=nodes,
        root_id=root.id,
        max_level=max(levels),
        _children=children,
        _levels=levels,
    )


def _link_error(nodes: dict[int, HierarchyNode]) -> HierarchyError | None:
    """The first dangling parent of ``nodes`` in document order, else the
    first parent-link cycle the walk from each node meets, else None."""
    levels_consistent = True
    for n in nodes.values():
        if n.parent_id is not None:
            parent = nodes.get(n.parent_id)
            if parent is None:
                return HierarchyError(f"node {n.id} has dangling parent {n.parent_id}")
            if parent.level != n.level - 1:
                levels_consistent = False
    # Levels that rise by one along every parent link rule out a cycle (it
    # would need a node deeper than itself), so the walk runs only when some
    # link breaks that.
    if not levels_consistent:
        for n in nodes.values():
            seen = {n.id}
            cur = n
            while cur.parent_id is not None:
                if cur.parent_id in seen:
                    return HierarchyError(f"cycle detected through node {cur.parent_id}")
                seen.add(cur.parent_id)
                cur = nodes[cur.parent_id]
    return None


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
