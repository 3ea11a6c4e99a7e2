"""Hierarchy loading/validation and the pruned-tree node count."""

import json
from fractions import Fraction

import pytest

from treeflow.bitmask import MAX_VAR_BITS
from treeflow.hierarchy import (
    Hierarchy,
    HierarchyError,
    load_hierarchy,
    dump_hierarchy,
    remaining_after_prune,
)


def row(id, parent, ci, level, width="int32", name=None):
    return {
        "id": id,
        "name": name or f"node{id}",
        "name_type_id": None,
        "width_class": width,
        "parent_id": parent,
        "child_index": ci,
        "level": level,
    }


GOOD = [
    row(1, None, 0, 1),
    row(2, 1, 0, 2, name="North America"),
    row(3, 1, 1, 2),
    row(4, 2, 0, 3),
]


class TestLoading:
    def test_loads_and_indexes(self):
        h = load_hierarchy(GOOD)
        assert h.max_level == 3
        assert h.root_id == 1
        assert [n.id for n in h.children(1)] == [2, 3]
        assert h.node(2).name == "North America"
        assert h.node(2).child_index == 0

    def test_child_ids_follow_children(self):
        h = load_hierarchy(GOOD)
        for v in h.nodes:
            assert list(h.child_ids(v)) == [n.id for n in h.children(v)]
        assert list(h.child_ids(4)) == []

    def test_single_node_document(self):
        h = load_hierarchy([row(0, None, 0, 1)])
        assert h.max_level == 1 and len(h) == 1

    def test_loads_from_json_text_and_path(self, tmp_path):
        text = json.dumps(GOOD)
        assert len(load_hierarchy(text)) == 4
        p = tmp_path / "h.json"
        p.write_text(text)
        assert len(load_hierarchy(p)) == 4

    def test_child_index_far_beyond_32_bits(self):
        """The collision check keeps child indexes, not a bit per index."""
        wide, far = f"var:{MAX_VAR_BITS}", MAX_VAR_BITS - 1
        h = load_hierarchy([row(1, None, 0, 1, width=wide), row(2, 1, far, 2), row(3, 1, 5, 2)])
        assert [n.id for n in h.children(1)] == [3, 2]
        assert list(h.child_ids(1)) == [3, 2]
        with pytest.raises(HierarchyError, match=f"collision under parent 1: 2 and 3 both at {far}"):
            load_hierarchy([row(1, None, 0, 1, width=wide), row(2, 1, far, 2), row(3, 1, far, 2)])

    def test_var_width_above_the_bound_is_refused(self):
        """A var width past MAX_VAR_BITS would let ``1 << child_index``
        build an int of that many bits on the first select."""
        rows = [row(1, None, 0, 1, width=f"var:{10**21}"), row(2, 1, 10**20, 2), row(3, 2, 0, 3)]
        with pytest.raises(HierarchyError) as err:
            load_hierarchy(rows)
        assert str(err.value) == (
            f"rows[0].width_class: variable width must be at most {MAX_VAR_BITS}, got {10**21}"
        )

    def test_dump_round_trip(self):
        h = load_hierarchy(GOOD)
        again = load_hierarchy(dump_hierarchy(h))
        assert dump_hierarchy(again) == dump_hierarchy(h)

    def test_ancestors_and_subtree(self):
        h = load_hierarchy(GOOD)
        assert [a.id for a in h.ancestors(4)] == [2, 1]
        assert h.subtree_ids(2) == {2, 4}


class TestValidationErrors:
    def test_duplicate_id(self):
        with pytest.raises(HierarchyError, match="duplicate"):
            load_hierarchy(GOOD + [row(2, 1, 5, 2)])

    def test_dangling_parent(self):
        with pytest.raises(HierarchyError, match="dangling"):
            load_hierarchy(GOOD + [row(9, 99, 0, 2)])

    def test_child_index_collision(self):
        with pytest.raises(HierarchyError, match="collision"):
            load_hierarchy(GOOD + [row(9, 1, 0, 2)])

    def test_collision_names_the_earlier_sibling(self):
        # Rows are checked in id order, so the first collision reported is
        # the one between the two lowest ids sharing a slot.
        rows = GOOD + [row(5, 1, 7, 2), row(9, 1, 7, 2), row(8, 1, 1, 2),
                       row(6, 1, 40, 2, width="int64"), row(7, 1, 31, 2)]
        rows[0] = row(1, None, 0, 1, width="int64")
        with pytest.raises(HierarchyError) as err:
            load_hierarchy(rows)
        assert str(err.value) == "child_index collision under parent 1: 3 and 8 both at 1"

    def test_wide_parent_without_collisions_loads(self):
        kids = [row(10 + k, 1, k, 2) for k in range(200)]
        h = load_hierarchy([row(1, None, 0, 1, width="var:200")] + kids)
        assert [c.child_index for c in h.children(1)] == list(range(200))

    def test_child_index_at_capacity(self):
        with pytest.raises(HierarchyError, match="capacity"):
            load_hierarchy(GOOD + [row(9, 1, 32, 2)])

    def test_level_inconsistent_with_parent(self):
        with pytest.raises(HierarchyError, match="inconsistent"):
            load_hierarchy(GOOD + [row(9, 1, 5, 3)])

    def test_multiple_roots(self):
        with pytest.raises(HierarchyError, match="multiple roots"):
            load_hierarchy(GOOD + [row(9, None, 0, 1)])

    def test_cycle_detected(self):
        rows = [row(1, None, 0, 1), row(2, 3, 0, 2), row(3, 2, 0, 2)]
        with pytest.raises(HierarchyError, match="cycle"):
            load_hierarchy(rows)

    def test_cycle_message(self):
        rows = [row(1, None, 0, 1), row(2, 3, 0, 2), row(3, 2, 0, 3)]
        with pytest.raises(HierarchyError) as err:
            load_hierarchy(rows)
        assert str(err.value) == "cycle detected through node 2"

    def test_cycle_reported_before_an_earlier_level_error(self):
        """The level check skips the cycle walk only when every link is
        consistent; a cycle still wins over a level error, as before."""
        rows = [row(1, None, 0, 1), row(2, 1, 0, 3), row(5, 6, 0, 2), row(6, 5, 0, 3)]
        with pytest.raises(HierarchyError) as err:
            load_hierarchy(rows)
        assert str(err.value) == "cycle detected through node 5"

    def test_level_inconsistency_message(self):
        with pytest.raises(HierarchyError) as err:
            load_hierarchy(GOOD + [row(9, 1, 5, 3)])
        assert str(err.value) == "node 9 level 3 inconsistent with parent 1 level 1"

    def test_missing_field(self):
        bad = dict(GOOD[0])
        del bad["child_index"]
        with pytest.raises(HierarchyError, match="child_index"):
            load_hierarchy([bad])


def _with(index, **fields):
    rows = [dict(r) for r in GOOD]
    rows[index].update(fields)
    return rows


class TestRowErrors:
    """Every row error is a HierarchyError naming the row index and field."""

    @pytest.mark.parametrize("rows,message", [
        (_with(3, level=None), "rows[3].level: must be an integer, got None"),
        (_with(1, parent_id=[1]), "rows[1].parent_id: must be an integer or null, got [1]"),
        (_with(2, width_class=5), "rows[2].width_class: must be a string, got 5"),
        (_with(0, id="x"), "rows[0].id: must be an integer, got 'x'"),
        (_with(2, child_index=1.0), "rows[2].child_index: must be an integer, got 1.0"),
        (_with(2, child_index=True), "rows[2].child_index: must be an integer, got True"),
        (_with(1, name_type_id="city"), "rows[1].name_type_id: must be an integer or null, got 'city'"),
        (_with(1, name=7), "rows[1].name: must be a string, got 7"),
        (_with(1, width_class="int16"), "rows[1].width_class: unknown width class 'int16'"),
        (_with(1, width_class="var:x"), "rows[1].width_class: unknown width class 'var:x'"),
        (_with(1, width_class="var:0"), "rows[1].width_class: variable width must be positive, got 0"),
        (GOOD[:2] + [[3, 1, 1, 2]], "rows[2]: must be an object, got list"),
        (GOOD + [None], "rows[4]: must be an object, got NoneType"),
        ([{"id": 1}], "rows[0]: missing field 'name'"),
    ])
    def test_message(self, rows, message):
        with pytest.raises(HierarchyError) as err:
            load_hierarchy(rows)
        assert str(err.value) == message

    def test_first_bad_field_wins(self):
        rows = _with(2, id="x", level=None, width_class=5)
        with pytest.raises(HierarchyError, match=r"^rows\[2\]\.id: "):
            load_hierarchy(rows)

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(_with(3, level=None)))
        with pytest.raises(HierarchyError) as err:
            load_hierarchy(path)
        assert str(err.value) == f"{path}: rows[3].level: must be an integer, got None"
        path.write_text(json.dumps(GOOD + [row(2, 1, 5, 2)]))
        with pytest.raises(HierarchyError) as err:
            load_hierarchy(str(path))
        assert str(err.value) == f"{path}: duplicate node id 2"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text("[{")
        with pytest.raises(HierarchyError, match=r"tree\.json: invalid JSON: "):
            load_hierarchy(path)
        with pytest.raises(HierarchyError, match=r"^invalid JSON: "):
            load_hierarchy("[{")

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        from treeflow.cli import main

        path = tmp_path / "tree.json"
        path.write_text(json.dumps(_with(3, level=None)))
        assert main(["run", "--methodology", "dfd", "--hierarchy", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: rows[3].level: must be an integer, got None\n"

    def test_cli_refuses_a_width_text_that_does_not_round_trip(self, tmp_path, capsys):
        from treeflow.cli import main

        path = tmp_path / "tree.json"
        path.write_text(json.dumps(_with(1, width_class="var:08")))
        assert main(["run", "--methodology", "dfd", "--hierarchy", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: rows[1].width_class: unknown width class 'var:08'\n"

    def test_cli_directory_is_a_usage_error(self, tmp_path, capsys):
        from treeflow.cli import main

        assert main(["run", "--methodology", "dfd", "--hierarchy", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def level_sum_remaining(n: int, h: int) -> int:
    """Independent oracle: count the surviving levels one by one."""
    return sum(n**k for k in range(0, h - 1))


class TestRemainingAfterPrune:
    def test_ternary_height_six(self):
        total, remaining, fraction = remaining_after_prune(3, 6)
        assert (total, remaining) == (1093, 121)
        assert abs(float(fraction) - 0.1107) < 1e-3
        assert fraction == Fraction(121, 1093)

    def test_binary_height_two(self):
        # Enumerated by hand: 7 nodes, only the root survives.
        assert remaining_after_prune(2, 2) == (7, 1, Fraction(1, 7))

    def test_matches_level_sum_oracle(self):
        for n in range(2, 6):
            for h in range(2, 9):
                total, remaining, fraction = remaining_after_prune(n, h)
                assert remaining == level_sum_remaining(n, h)
                assert total == sum(n**k for k in range(h + 1))
                assert fraction == Fraction(remaining, total)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            remaining_after_prune(1, 5)
        with pytest.raises(ValueError):
            remaining_after_prune(3, 1)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            remaining_after_prune(2, 64)


class TestLevelPartition:
    def test_levels_partition_nodes_and_parents_step_one(self):
        h = load_hierarchy(GOOD)
        seen = []
        for k in h.levels():
            seen.extend(n.id for n in h.level(k))
            for n in h.level(k):
                if n.parent_id is not None:
                    assert h.node(n.parent_id).level == n.level - 1
        assert sorted(seen) == sorted(h.nodes)
