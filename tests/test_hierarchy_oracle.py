"""The hierarchy loader against its three-pass predecessor, kept here as the
oracle: every document either raises the same error text in both, or loads
to an equal ``Hierarchy`` (the same nodes in insertion order, the same
children lists, the same levels index in the same key order, root and max
level).  Documents with several faults pin which one is reported."""

import copy
import json
from collections import defaultdict
from collections.abc import Mapping
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_hierarchy_mutations import documents
from treeflow.bitmask import BitmaskError, WidthClass
from treeflow.hierarchy import Hierarchy, HierarchyError, HierarchyNode, load_hierarchy

# -- the three-pass loader, kept as the oracle of hierarchy._build -------------------

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


def oracle_build(rows: Any) -> Hierarchy:
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


# -- documents ------------------------------------------------------------------------


class RowView(Mapping):
    """A row that is a Mapping but not a dict: the loader refuses it."""

    def __init__(self, row):
        self._row = dict(row)

    def __getitem__(self, key):
        return self._row[key]

    def __iter__(self):
        return iter(self._row)

    def __len__(self):
        return len(self._row)


def row(id, parent, ci, level, width="int32"):
    return {"id": id, "name": f"n{id}", "name_type_id": None, "width_class": width,
            "parent_id": parent, "child_index": ci, "level": level}


def defaulting(r):
    """A dict subclass that makes up any missing field."""
    out = defaultdict(int)
    out.update(r)
    return out


ROOT = row(1, None, 0, 1)
# Several faults in one document: the report names the first the ordered
# reading meets (row pass, roots, dangling parents in document order, the
# cycle walk, then the id-order checks).
MULTI_FAULT = {
    "duplicate id before a dangling parent": (
        [ROOT, row(5, 99, 0, 2), row(2, 1, 0, 2), row(2, 1, 1, 2)], "duplicate node id 2"),
    "dangling parent after a smaller collision": (
        [ROOT, row(2, 1, 0, 2), row(3, 1, 0, 2), row(9, 77, 0, 2)], "node 9 has dangling parent 77"),
    "two dangling parents out of id order": (
        [ROOT, row(9, 99, 0, 2), row(4, 98, 0, 2)], "node 9 has dangling parent 99"),
    "cycle with inconsistent levels": (
        [ROOT, row(2, 1, 0, 3), row(3, 4, 0, 2), row(4, 3, 0, 5)], "cycle detected through node 3"),
    "collision and capacity under different parents": (
        [ROOT, row(2, 1, 0, 2), row(3, 1, 1, 2, width="var:2"), row(5, 3, 5, 3),
         row(10, 2, 0, 3), row(11, 2, 0, 3)],
        "node 5 child_index 5 >= capacity 2 of parent 3"),
    "capacity after a collision under different parents": (
        [ROOT, row(2, 1, 0, 2), row(3, 1, 1, 2, width="var:2"), row(5, 2, 0, 3),
         row(6, 2, 0, 3), row(10, 3, 5, 3)],
        "child_index collision under parent 2: 5 and 6 both at 0"),
    "negative child_index before a level fault": (
        [ROOT, row(2, 1, -1, 2), row(3, 1, 1, 3)], "node 2 has negative child_index"),
}
ODD_DOCUMENTS = {
    "non-dict Mapping row": [ROOT, RowView(row(2, 1, 0, 2))],
    "dict subclass row": [ROOT, defaulting(row(2, 1, 0, 2))],
    "dict subclass row missing a field": [ROOT, defaulting({k: v for k, v in row(2, 1, 0, 2).items()
                                                            if k != "level"})],
    "True as id": [ROOT, row(True, 1, 0, 2)],
    "unhashable width_class": [ROOT, row(2, 1, 0, 2, width=["int32"])],
    "unhashable width_class and a bad level": [ROOT, {**row(2, 1, 0, 2, width={}), "level": "2"}],
    "var:08": [ROOT, row(2, 1, 0, 2, width="var:08")],
    "wide var width": [row(1, None, 0, 1, width="var:40"), row(2, 1, 39, 2), row(3, 1, 0, 2)],
    # Valid trees whose indexes are not in id order: the levels index keys
    # levels by first appearance in id order, children go by child_index.
    "a deeper node with a smaller id": [ROOT, row(2, 5, 0, 3), row(5, 1, 0, 2)],
    "children out of id order": [ROOT, row(2, 1, 1, 2), row(3, 1, 0, 2), row(4, 3, 0, 3)],
}
SPECIAL = {**{name: doc for name, (doc, _) in MULTI_FAULT.items()}, **ODD_DOCUMENTS}


@st.composite
def odd_documents(draw):
    """A mutated tree, with one row perhaps wrapped in a Mapping or a dict
    subclass, or given a True id, an unhashable width_class or ``var:08``."""
    rows = draw(documents())
    if not isinstance(rows, list) or not rows:
        return rows
    k = draw(st.integers(0, len(rows) - 1))
    if isinstance(rows[k], dict):
        kind = draw(st.sampled_from(("none", "view", "subclass", "true-id", "list-width", "var:08")))
        if kind == "view":
            rows[k] = RowView(rows[k])
        elif kind == "subclass":
            rows[k] = defaulting(rows[k])
        elif kind == "true-id":
            rows[k]["id"] = True
        elif kind == "list-width":
            rows[k]["width_class"] = [rows[k].get("width_class")]
        elif kind == "var:08":
            rows[k]["width_class"] = "var:08"
    return rows


# -- the comparison -------------------------------------------------------------------


def outcome(build, doc):
    """``build(doc)``'s Hierarchy as comparable parts, or its error."""
    try:
        h = build(doc)
    except Exception as exc:  # the oracle's exception, whatever it is, must recur
        return type(exc), str(exc)
    assert all(type(node) is HierarchyNode for node in h.nodes.values())
    return (list(h.nodes.items()), list(h._children.items()), list(h._levels.items()),
            h.root_id, h.max_level)


def assert_same_as_oracle(doc):
    before = copy.deepcopy(doc)
    expected = outcome(oracle_build, doc)
    assert outcome(load_hierarchy, doc) == expected
    assert doc == before  # the caller's rows are left as they were


@pytest.mark.parametrize("name", SPECIAL)
def test_special_documents_match_the_oracle(name):
    assert_same_as_oracle(SPECIAL[name])


@pytest.mark.parametrize("name", MULTI_FAULT)
def test_multi_fault_documents_report_the_first_fault(name):
    doc, message = MULTI_FAULT[name]
    with pytest.raises(HierarchyError) as err:
        load_hierarchy(doc)
    assert str(err.value) == message


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=odd_documents())
def test_loader_matches_the_oracle(doc):
    assert_same_as_oracle(doc)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents())
def test_file_errors_carry_the_path(workdir, doc):
    path = workdir / "tree.json"
    path.write_text(json.dumps(doc))
    expected = outcome(oracle_build, doc)
    if expected[0] is HierarchyError:
        expected = (HierarchyError, f"{path}: {expected[1]}")
    assert outcome(load_hierarchy, path) == expected
