"""Grandparent/parent/child bitmask store with O(1) selection operations.

Each node at levels 1..L-2 that has grandchildren becomes one storage unit:
the unit is keyed by the grandparent node, its columns are that node's
children, and each column's bitmask encodes the selection of the column
node's own children.  The bottom two levels are therefore embedded as
columns/bits of level L-2 units and never get units of their own.

Selection state lives per subject (e.g. a person).  A record is its cells,
a dict of each column id's mask as a plain int; a column's width is its
node's ``width_class``.  An instrumented step counter provides the
constant-work evidence used by the benchmark suite.

What each operation costs:

* ``lookup`` and ``update``: two node reads (the node, then its parent, the
  column) and one record, keyed by the parent's ``parent_id``; a select adds
  a read of the grandparent and of the parent's bit in its record.
* building the store (``generate_schema``): the nodes at levels 1..L-2 and
  the units' columns, never the leaves.
* ``selected_children``, ``selection_set`` and ``report_paths``: the
  structural levels plus the selected nodes.  Each visited parent's cell is
  read once and only its set bits are walked; a parent whose children have
  a gap in their child_index numbering reads all its children.
* ``reset_subtree``: the node's subtree plus every record of every subject;
  its docstring says why.

Concurrency: a single writer per (subject, unit) record with any number of
readers is safe because cells are immutable ints and records swap whole
cell values; torn reads cannot occur.  The reference mode used by all
tests is single-threaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable

from .bitmask import BitmaskError, DanglingBitError
from .hierarchy import Hierarchy, HierarchyNode
from .jsondoc import JSONDocumentError, decode_json, exact_int, read_text, write_text
from .trace import Trace

# A node is selectable iff it sits at or below this depth: the top two levels
# are structural anchors (record key and column of the root unit).
MIN_SELECTABLE_LEVEL = 3

# Elementary-step budgets (record fetch + cell fetch + bit op, plus the
# parent-liveness pre-check on selects).
LOOKUP_STEP_BUDGET = 3
UPDATE_STEP_BUDGET = 8


class TleError(ValueError):
    """Store usage error."""


class UnknownChildError(TleError):
    """A node id outside the hierarchy, or above the selectable levels."""


class OrphanSelectionError(TleError):
    """Select of a node whose parent is not currently selected."""


class ShallowHierarchyError(TleError):
    """Hierarchies with fewer than three levels have no storable unit."""


class SnapshotError(TleError):
    """A store snapshot that is not valid JSON or does not fit the schema."""


@dataclass(frozen=True)
class TleUnit:
    """One grandparent table: its parent columns in child_index order."""

    grandparent_id: int
    parent_column_ids: tuple[int, ...]


@dataclass(frozen=True)
class TleSchema:
    units: dict[int, TleUnit]
    embedded_levels: tuple[int, int]


def generate_schema(h: Hierarchy) -> TleSchema:
    """One unit per node at levels 1..L-2 with grandchildren; columns ordered
    by child_index; column width taken from the column node's width class.
    The two deepest levels are flagged embedded.

    Columns, their children and the child counts come from ``child_ids``;
    a column's node is read only for its width class.  The cost is the
    nodes at levels 1..L-2 and the units' columns, never the leaves."""
    if h.max_level < 3:
        raise ShallowHierarchyError(
            f"need at least 3 levels for a storage unit, got {h.max_level}"
        )
    nodes, child_ids = h.nodes, h.child_ids
    units: dict[int, TleUnit] = {}
    for level in range(1, h.max_level - 1):
        for g in h.level(level):
            columns = child_ids(g.id)
            if not any(child_ids(c) for c in columns):
                continue
            for c in columns:
                width, count = nodes[c].width_class, len(child_ids(c))
                if count > width.capacity:
                    raise TleError(
                        f"column {c} width {width.serialize()} too "
                        f"small for {count} children"
                    )
            units[g.id] = TleUnit(grandparent_id=g.id, parent_column_ids=tuple(columns))
    return TleSchema(units=units, embedded_levels=(h.max_level - 1, h.max_level))


def _unselectable(child_id: int, node: HierarchyNode | None) -> UnknownChildError:
    """The error for an id outside the hierarchy or above the selectable
    levels."""
    if node is None:
        return UnknownChildError(f"unknown node id {child_id}")
    return UnknownChildError(f"node {child_id} at level {node.level} is structural")


class StepCounter:
    """Counts elementary store steps: record fetch, cell fetch, bit op."""

    def __init__(self) -> None:
        self.steps = 0

    def tick(self) -> None:
        self.steps += 1


class TleStore:
    def __init__(self, hierarchy: Hierarchy):
        self.hierarchy = hierarchy
        self.schema = generate_schema(hierarchy)
        # (subject, unit id) -> that record's cells: column id -> mask value
        self.records: dict[tuple[int, int], dict[int, int]] = {}
        self.counter = StepCounter()

    # -- public operations --------------------------------------------------

    def lookup(self, subject: int, child_id: int) -> bool:
        """Selection status of one node: two node reads (the node and its
        parent, the column) and one record, keyed by the parent's
        ``parent_id``; constant elementary steps."""
        nodes = self.hierarchy.nodes
        node = nodes.get(child_id)
        if node is None or node.level < MIN_SELECTABLE_LEVEL:
            raise _unselectable(child_id, node)
        parent = nodes[node.parent_id]
        self.counter.steps += LOOKUP_STEP_BUDGET  # record fetch, cell fetch, bit test
        cells = self.records.get((subject, parent.parent_id))
        return cells is not None and (cells[parent.id] >> node.child_index) & 1 == 1

    def update(self, subject: int, child_id: int, selected: bool) -> None:
        """Set or clear one selection bit: two node reads and one record, as
        in ``lookup``; the unit's columns are read only to allocate the
        record on its first write.

        Selecting checks that the parent is live (mirrors the normalized
        store's orphan rule): it reads the grandparent node, then the
        parent's bit in the grandparent's record, for the steps of a
        ``lookup``.  Deselecting touches only the single bit, the cascading
        wipe is ``reset_subtree``.
        """
        nodes = self.hierarchy.nodes
        node = nodes.get(child_id)
        if node is None or node.level < MIN_SELECTABLE_LEVEL:
            raise _unselectable(child_id, node)
        parent = nodes[node.parent_id]
        if selected and parent.level >= MIN_SELECTABLE_LEVEL:
            grand = nodes[parent.parent_id]
            self.counter.steps += LOOKUP_STEP_BUDGET  # record fetch, cell fetch, bit test
            cells = self.records.get((subject, grand.parent_id))
            if cells is None or not (cells[grand.id] >> parent.child_index) & 1:
                raise OrphanSelectionError(
                    f"parent {parent.id} of node {child_id} is not selected"
                )
        self.counter.steps += 3  # record fetch, cell fetch, bit write
        key = (subject, parent.parent_id)
        cells = self.records.get(key)
        if cells is None:
            # A selectable node's grandparent is at level <= L-2 with the
            # node as its grandchild, so it has a unit whose columns include
            # the parent.
            columns = self.schema.units[parent.parent_id].parent_column_ids
            cells = self.records[key] = dict.fromkeys(columns, 0)
        bit = 1 << node.child_index
        cell = cells[parent.id]
        cells[parent.id] = cell | bit if selected else cell & ~bit

    def reset_subtree(self, subject: int, node_id: int) -> None:
        """Clear the node's own bit and zero every cell whose column lies in
        the node's subtree, for this subject.

        Costs the node's subtree plus every record of every subject: no
        index from a subject to its records exists yet.  Such an index waits
        until the store benchmark holds its record population steady, since
        a faster reset there lets the record count grow with the op count."""
        node = self.hierarchy.node(node_id)
        if node.level >= MIN_SELECTABLE_LEVEL:
            self.update(subject, node_id, False)
        subtree = self.hierarchy.subtree_ids(node_id)
        for (subj, _), cells in self.records.items():
            if subj != subject:
                continue
            for col, mask in cells.items():
                if mask and col in subtree:
                    cells[col] = 0

    def batch_query(
        self, predicate: Callable[[int, int, int], bool]
    ) -> list[tuple[int, int, int, int]]:
        """Visit every stored cell once; matches are
        (subject, unit, column, mask) tuples.  Work is linear in records."""
        matches = []
        for (subject, unit_id), cells in self.records.items():
            self.counter.tick()  # record visit
            for col, mask in cells.items():
                self.counter.tick()  # one mask op per column
                if predicate(unit_id, col, mask):
                    matches.append((subject, unit_id, col, mask))
        return matches

    # -- decoding and reporting ----------------------------------------------

    def _set_children(self, subject: int, parent: HierarchyNode) -> list[HierarchyNode]:
        """Children of ``parent`` whose bits are set, in child_index order.

        Reads the parent's cell once and visits only its set bits, lowest
        first, as ``decode`` does; a bit with no child is ignored.  Bit i is
        the i-th child when the children are numbered 0..n-1, so the walk
        reads the last child and each selected one.  A parent with a gap in
        its numbering maps bits by child_index and reads every child.  The
        root's children are structural and all count as set."""
        h = self.hierarchy
        ids = h.child_ids(parent.id)
        if not ids:
            return []
        nodes = h.nodes
        if parent.level + 1 < MIN_SELECTABLE_LEVEL:
            return [nodes[c] for c in ids]
        # The parent is a column of its own parent's unit.
        cells = self.records.get((subject, parent.parent_id))
        if cells is None:
            return []
        mask = cells[parent.id]
        last = nodes[ids[-1]].child_index
        by_index = None if last == len(ids) - 1 else {nodes[c].child_index: c for c in ids}
        out = []
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            if i > last:
                break  # every bit left is past the last child
            child = ids[i] if by_index is None else by_index.get(i)
            if child is not None:
                out.append(nodes[child])
            mask ^= low
        return out

    def selected_children(self, subject: int, parent_id: int) -> list[HierarchyNode]:
        """Children of ``parent_id`` whose bits are set (raw, not reachability
        filtered), in child_index order; the root's structural children are
        all "selected", and an unknown id has none.  Costs the parent, one
        record cell and the selected children (see ``_set_children``)."""
        parent = self.hierarchy.nodes.get(parent_id)
        return [] if parent is None else self._set_children(subject, parent)

    def selection_set(self, subject: int) -> set[int]:
        """Selected nodes reachable from the root through selected bits.
        Bits left set under a deselected ancestor are not visible.  Costs
        the structural levels plus the selected nodes: each visited parent's
        cell is read once and only its set bits are walked."""
        out: set[int] = set()
        frontier = [self.hierarchy.root]
        while frontier:
            for child in self._set_children(subject, frontier.pop()):
                if child.level >= MIN_SELECTABLE_LEVEL:
                    out.add(child.id)
                frontier.append(child)
        return out

    def report_paths(self, subject: int) -> list[str]:
        """Root-to-selected-node paths, ``" > "``-joined, sorted
        lexicographically.  A selected node with no selected children
        terminates its path.  Costs what ``selection_set`` does, plus the
        path strings and the sort."""
        paths = []
        root = self.hierarchy.root
        names: dict[int, str] = {root.id: root.name}
        frontier = [root]
        while frontier:
            parent = frontier.pop()
            selected = self._set_children(subject, parent)
            for child in selected:
                names[child.id] = f"{names[parent.id]} > {child.name}"
                frontier.append(child)
            if not selected and parent.level >= MIN_SELECTABLE_LEVEL:
                paths.append(names[parent.id])
        return sorted(paths)

    # -- storage accounting ---------------------------------------------------

    def storage_report(self, key_bits: int) -> dict[str, Any]:
        """Bits used by this store vs one foreign-key row per selection.

        traditional = (selected child count) x key_bits; ours is the summed
        capacity of all allocated cells.  The ratio is exact."""
        if key_bits < 1:
            raise TleError("key_bits must be >= 1")
        nodes = self.hierarchy.nodes
        tle_bits = 0
        selected = 0
        for cells in self.records.values():
            for col, mask in cells.items():
                tle_bits += nodes[col].width_class.capacity
                selected += mask.bit_count()
        traditional = selected * key_bits
        ratio = Fraction(tle_bits, traditional) if traditional else None
        return {
            "tle_bits": tle_bits,
            "traditional_bits": traditional,
            "selected": selected,
            "ratio": ratio,
        }

    # -- persistence -----------------------------------------------------------

    def save_snapshot(self, path: str | Path) -> None:
        """Write the schema and every record as sorted-key JSON through
        ``jsondoc.write_text``: an existing file is overwritten in place,
        keeping its inode and mode."""
        nodes = self.hierarchy.nodes
        doc = {
            "schema": {
                "embedded_levels": list(self.schema.embedded_levels),
                "units": [
                    {
                        "grandparent_id": u.grandparent_id,
                        "columns": [
                            {"id": c, "width_class": nodes[c].width_class.serialize()}
                            for c in u.parent_column_ids
                        ],
                    }
                    for u in self.schema.units.values()
                ],
            },
            "records": [
                {
                    "subject_id": subject,
                    "unit_id": unit_id,
                    "cells": {
                        str(col): nodes[col].width_class.dump_mask(mask)
                        for col, mask in cells.items()
                    },
                }
                for (subject, unit_id), cells in self.records.items()
            ],
        }
        write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load_snapshot(cls, hierarchy: Hierarchy, path: str | Path) -> "TleStore":
        """Rebuild a store saved by ``save_snapshot``.  Raises SnapshotError
        naming the file, the record index and the field
        (``store.json: records[0].unit_id: unknown unit 999``)."""
        try:
            doc = decode_json(read_text(path))
        except JSONDocumentError as exc:
            raise SnapshotError(f"{path}: {exc}") from None
        records = doc.get("records") if isinstance(doc, dict) else None
        if not isinstance(records, list):
            raise SnapshotError(f"{path}: missing field 'records' (a list)")
        store = cls(hierarchy)
        for index, raw in enumerate(records):
            where = f"{path}: records[{index}]"
            if not isinstance(raw, dict):
                raise SnapshotError(f"{where}: not an object")
            field = "subject_id"
            try:
                subject = exact_int(raw[field])
                field = "unit_id"
                unit_id = exact_int(raw[field])
                unit = store.schema.units.get(unit_id)
                if unit is None:
                    raise ValueError(f"unknown unit {unit_id}")
                field = "cells"
                cells = raw[field]
                if cells.__class__ is not dict:
                    raise ValueError(f"must be an object, got {cells!r}")
                columns = {str(col): col for col in unit.parent_column_ids}
                rec = dict.fromkeys(unit.parent_column_ids, 0)
                for col_text, value in cells.items():
                    col = columns.get(col_text)
                    if col is None:
                        raise ValueError(f"unknown column {col_text} of unit {unit_id}")
                    rec[col] = hierarchy.nodes[col].width_class.load_mask(value)
            except KeyError:
                raise SnapshotError(f"{where}: missing field {field!r}") from None
            except BitmaskError as exc:
                raise SnapshotError(f"{where}.cells.{col}: {exc}") from None
            except ValueError as exc:
                raise SnapshotError(f"{where}.{field}: {exc}") from None
            store.records[(subject, unit_id)] = rec
        return store


def decode(mask: int, parent: HierarchyNode, h: Hierarchy) -> set[HierarchyNode]:
    """Children of ``parent`` whose bit is set in the cell value ``mask``,
    read at the parent's width class.

    Raises BitmaskError when ``mask`` is negative or wider than the parent's
    width class, and DanglingBitError when a set bit has no corresponding
    child."""
    parent.width_class.check(mask)
    by_index = {c.child_index: c for c in h.children(parent.id)}
    out = set()
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        if i not in by_index:
            raise DanglingBitError(
                f"bit {i} set but parent {parent.id} has no child at that index"
            )
        out.add(by_index[i])
        mask ^= low
    return out


# -- paged traversal ------------------------------------------------------------


@dataclass(frozen=True)
class TraversalPage:
    """One batch of parent nodes plus the user's selections for their children."""

    parent_ids: tuple[int, ...]
    selections: dict[int, bool]


def tle_traverse(
    store: TleStore, subject: int, pages: Iterable[TraversalPage]
) -> Trace:
    """Run the paged traversal loop over the store.

    Per page: load the parent batch, resolve grandparents, load their unit
    records, resolve children and preset their status from current bits, then
    apply the page's selections and commit.  One event per rule fired."""
    trace = Trace("tle")
    pages = list(pages)
    trace.emit("TLE1", "start", "S0", {"pages": len(pages)})
    for page_no, page in enumerate(pages, start=1):
        parents = [store.hierarchy.node(p) for p in page.parent_ids]
        trace.emit(
            "TLE2", "S0", "S1", {"page": page_no, "parents": [p.id for p in parents]}
        )
        grandparents = []
        for p in parents:
            g = store.hierarchy.parent(p.id)
            if g is None:
                raise TleError(f"page parent {p.id} has no grandparent unit")
            if g.id not in store.schema.units:
                raise TleError(f"page parent {p.id} resolves to unknown unit {g.id}")
            grandparents.append(g.id)
        trace.emit("TLE3", "S1", "S2", {"page": page_no, "grandparents": grandparents})
        for g in grandparents:
            store.counter.tick()  # record fetch; a write allocates it, not a read
            store.records.get((subject, g))
        trace.emit("TLE4", "S2", "S3", {"page": page_no, "units": grandparents})
        preset: dict[int, bool] = {}
        for p in parents:
            for child in store.hierarchy.children(p.id):
                preset[child.id] = store.lookup(subject, child.id)
        trace.emit("TLE5", "S3", "S4", {"page": page_no, "preset": preset})
        applied = {}
        for child_id in sorted(page.selections):
            wanted = page.selections[child_id]
            if preset.get(child_id) != wanted:
                store.update(subject, child_id, wanted)
            applied[child_id] = wanted
        trace.emit("TLE6", "S4", "S5", {"page": page_no, "applied": applied})
        if page_no < len(pages):
            trace.emit("TLE7", "S5", "S0", {"page": page_no})
    if pages:
        trace.emit("TLE8", "S5", "S6", {})
    else:
        trace.emit("TLE8", "S0", "S6", {})
    trace.emit("TLE9", "S6", "end", {})
    return trace
