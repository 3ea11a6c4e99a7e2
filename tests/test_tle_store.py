"""Store behavior: schema generation, the worked selection state, O(1)
instrumentation, subtree reset, batch scans, storage accounting, paged
traversal, path report, and snapshots."""

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeflow.bitmask import BitmaskError, DanglingBitError, WidthClass
from treeflow.fixtures import (
    GEO,
    GEO_REPORT_LINES,
    GEO_SELECTIONS,
    geo_hierarchy,
    geo_store,
    perfect_tree,
    uniform_hierarchy,
)
from treeflow.hierarchy import remaining_after_prune
from treeflow.tle import (
    LOOKUP_STEP_BUDGET,
    MIN_SELECTABLE_LEVEL,
    UPDATE_STEP_BUDGET,
    OrphanSelectionError,
    ShallowHierarchyError,
    TleError,
    TleStore,
    TraversalPage,
    UnknownChildError,
    decode,
    generate_schema,
    tle_traverse,
)


@pytest.fixture(scope="module")
def geo():
    return geo_hierarchy()


@pytest.fixture()
def store(geo):
    return geo_store()


class TestSchema:
    def test_units_exist_for_grandparents_only(self, geo):
        schema = generate_schema(geo)
        assert set(schema.units) == {0, 1, 2, 4, 9, 38, 45}
        assert schema.embedded_levels == (6, 7)

    def test_columns_ordered_by_child_index(self, geo):
        unit = generate_schema(geo).units[2]  # North America
        names = [geo.node(c).name for c in unit.parent_column_ids]
        assert names == ["United States", "Canada", "Mexico", "Guatemala", "Honduras"]
        assert geo.node(unit.parent_column_ids[0]).width_class.capacity == 64

    def test_three_level_minimum(self):
        h = uniform_hierarchy([1, 3])
        with pytest.raises(ShallowHierarchyError):
            generate_schema(h)

    def test_minimal_three_level_tree_has_one_unit(self):
        h = uniform_hierarchy([1, 2, 4])
        schema = generate_schema(h)
        assert set(schema.units) == {h.root_id}

    def test_a_column_narrower_than_its_children_is_refused(self):
        # load_hierarchy refuses such a tree, so one column is narrowed
        # after loading: four children under a 3-bit column.
        h = uniform_hierarchy([1, 2, 8])
        col = h.level(2)[0]
        h.nodes[col.id] = col._replace(width_class=WidthClass.parse("var:3"))
        with pytest.raises(TleError, match=f"^column {col.id} width var:3 too small for 4 children$"):
            generate_schema(h)

    def test_unit_count_matches_pruned_node_count(self):
        # Perfect ternary tree, 7 levels: every node above the bottom two
        # levels has grandchildren.
        h = perfect_tree(3, 7)
        schema = generate_schema(h)
        _, remaining, _ = remaining_after_prune(3, 6)
        assert len(schema.units) == remaining == 121


class TestWorkedSelectionState:
    def test_continent_mask_is_21(self, store):
        rec = store.records[(1, GEO["root"])]
        assert rec[GEO["anchor"]] == 21

    def test_country_masks(self, store):
        rec = store.records[(1, GEO["anchor"])]
        assert rec[GEO["north_america"]] == 3
        assert rec[GEO["europe"]] == 3
        assert rec[GEO["asia"]] == 0

    def test_state_masks(self, store):
        rec = store.records[(1, GEO["north_america"])]
        assert rec[GEO["united_states"]] == 264192
        assert rec[GEO["canada"]] == 4097

    def test_county_masks(self, store):
        rec = store.records[(1, GEO["united_states"])]
        assert rec[GEO["maryland"]] == 4100
        assert rec[GEO["virginia"]] == 268435520

    def test_city_masks(self, store):
        md = store.records[(1, GEO["maryland"])]
        assert md[GEO["baltimore_county"]] == 3
        assert md[GEO["howard_county"]] == 3
        va = store.records[(1, GEO["virginia"])]
        assert va[GEO["arlington_county"]] == 257
        assert va[GEO["fairfax_county"]] == 0


class TestDecode:
    def test_decode_21_names_three_continents(self, store, geo):
        mask = store.records[(1, GEO["root"])][GEO["anchor"]]
        names = {n.name for n in decode(mask, geo.node(GEO["anchor"]), geo)}
        assert names == {"North America", "Europe", "Asia"}

    def test_decode_empty(self, store, geo):
        mask = store.records[(1, GEO["anchor"])][GEO["asia"]]
        assert decode(mask, geo.node(GEO["asia"]), geo) == set()

    def test_decode_howard_cities(self, store, geo):
        mask = store.records[(1, GEO["maryland"])][GEO["howard_county"]]
        names = {n.name for n in decode(mask, geo.node(GEO["howard_county"]), geo)}
        assert names == {"Columbia MD", "Ellicott City"}

    @pytest.mark.parametrize("column,mask,message", [
        ("howard_county", -1, "mask value must be non-negative"),
        ("howard_county", 1 << 32, f"value {1 << 32} exceeds 32-bit capacity"),
        ("united_states", 1 << 64, f"value {1 << 64} exceeds 64-bit capacity"),
        ("virginia", 1 << 120, f"value {1 << 120} exceeds 120-bit capacity"),
    ])
    def test_refuses_a_mask_outside_the_width(self, geo, column, mask, message):
        with pytest.raises(BitmaskError) as err:
            decode(mask, geo.node(GEO[column]), geo)
        assert str(err.value) == message

    def test_dangling_bit(self, geo):
        with pytest.raises(DanglingBitError):
            decode(1 << 9, geo.node(GEO["howard_county"]), geo)

    @given(st.sets(st.sampled_from([0, 1, 3]), max_size=3))
    def test_round_trip_encode_decode(self, positions):
        # Howard County has children at bit positions 0, 1 and 3.
        h = geo_hierarchy()
        parent = h.node(GEO["howard_county"])
        by_index = {c.child_index: c for c in h.children(parent.id)}
        mask = sum(1 << p for p in positions)
        got = decode(mask, parent, h)
        assert {c.child_index for c in got} == positions
        assert got == {by_index[p] for p in positions}


class TestLookupUpdate:
    def test_lookup_maryland_bit18(self, store):
        assert store.lookup(1, GEO["maryland"])
        assert not store.lookup(1, GEO["alaska"])

    def test_lookup_empty_store(self, geo):
        assert not TleStore(geo).lookup(99, GEO["maryland"])

    def test_unknown_child(self, store):
        with pytest.raises(UnknownChildError):
            store.lookup(1, 424242)
        with pytest.raises(UnknownChildError):
            store.lookup(1, GEO["anchor"])  # structural

    def test_update_involution(self, store):
        before = store.records[(1, GEO["north_america"])][GEO["united_states"]]
        store.update(1, GEO["california"], True)
        store.update(1, GEO["california"], False)
        after = store.records[(1, GEO["north_america"])][GEO["united_states"]]
        assert before == after

    def test_update_sequence_builds_21(self, geo):
        s = TleStore(geo)
        for node in ("asia", "europe", "north_america"):
            s.update(7, GEO[node], True)
        assert s.records[(7, GEO["root"])][GEO["anchor"]] == 21

    def test_orphan_selection_rejected(self, geo):
        s = TleStore(geo)
        with pytest.raises(OrphanSelectionError):
            s.update(1, GEO["united_states"], True)  # continent unselected

    def test_new_records_do_not_share_cells(self, geo):
        s = TleStore(geo)
        s.update(1, GEO["asia"], True)
        s.update(2, GEO["europe"], True)
        first, second = s.records[(1, GEO["root"])], s.records[(2, GEO["root"])]
        assert first is not second
        assert first[GEO["anchor"]] != second[GEO["anchor"]]

    def test_exact_step_counts(self, geo):
        s = TleStore(geo)

        def steps(fn, *args):
            before = s.counter.steps
            fn(*args)
            return s.counter.steps - before

        assert steps(s.lookup, 1, GEO["maryland"]) == LOOKUP_STEP_BUDGET
        assert steps(s.update, 1, GEO["north_america"], True) == 3  # structural parent
        assert steps(s.update, 1, GEO["united_states"], True) == 6  # parent checked
        assert steps(s.update, 1, GEO["united_states"], False) == 3
        with pytest.raises(OrphanSelectionError):
            s.update(1, GEO["maryland"], True)
        assert s.counter.steps == 3 + 3 + 6 + 3 + 3  # the refused select's parent lookup

    def test_step_budgets(self, store):
        before = store.counter.steps
        store.lookup(1, GEO["ellicott_city"])
        assert store.counter.steps - before <= LOOKUP_STEP_BUDGET
        before = store.counter.steps
        store.update(1, GEO["laurel"], True)
        assert store.counter.steps - before <= UPDATE_STEP_BUDGET


class TestResetSubtree:
    def test_deselect_north_america_cascades(self, store):
        store.reset_subtree(1, GEO["north_america"])
        assert store.records[(1, GEO["root"])][GEO["anchor"]] == 20
        assert store.records[(1, GEO["anchor"])][GEO["north_america"]] == 0
        us = store.records[(1, GEO["north_america"])]
        assert us[GEO["united_states"]] == 0
        assert us[GEO["canada"]] == 0
        assert store.records[(1, GEO["united_states"])][GEO["maryland"]] == 0
        assert store.records[(1, GEO["maryland"])][GEO["howard_county"]] == 0
        for node in ("maryland", "howard_county", "ellicott_city", "ontario"):
            assert not store.lookup(1, GEO[node])
        # Other continents untouched.
        assert store.lookup(1, GEO["france"])

    def test_reset_leaf_is_clear_bit_only(self, store):
        store.reset_subtree(1, GEO["ellicott_city"])
        assert store.records[(1, GEO["maryland"])][GEO["howard_county"]] == 1
        assert store.lookup(1, GEO["columbia_md"])
        assert not store.lookup(1, GEO["ellicott_city"])


class TestBatchQuery:
    def test_any_bit_set_returns_nonempty_cells(self, store):
        matches = store.batch_query(lambda unit, col, mask: mask != 0)
        got = {(unit, col) for (_s, unit, col, _m) in matches}
        expected = {
            (GEO["root"], GEO["anchor"]),
            (GEO["anchor"], GEO["north_america"]),
            (GEO["anchor"], GEO["europe"]),
            (GEO["north_america"], GEO["united_states"]),
            (GEO["north_america"], GEO["canada"]),
            (GEO["united_states"], GEO["maryland"]),
            (GEO["united_states"], GEO["virginia"]),
            (GEO["maryland"], GEO["baltimore_county"]),
            (GEO["maryland"], GEO["howard_county"]),
            (GEO["virginia"], GEO["arlington_county"]),
        }
        assert got == expected

    def test_empty_store(self, geo):
        assert TleStore(geo).batch_query(lambda u, c, m: True) == []

    def test_matches_equal_decode_filter(self, store, geo):
        """Brute-force oracle: decode every cell and filter."""
        matches = store.batch_query(lambda u, c, m: m.bit_count() >= 2)
        brute = []
        for (subject, unit_id), rec in store.records.items():
            for col, mask in rec.items():
                if len(decode(mask, geo.node(col), geo)) >= 2:
                    brute.append((subject, unit_id, col, mask))
        assert sorted(matches) == sorted(brute)

    def test_linear_step_bound(self, store):
        before = store.counter.steps
        store.batch_query(lambda u, c, m: False)
        steps = store.counter.steps - before
        cells = sum(len(r) for r in store.records.values())
        assert steps == len(store.records) + cells


class TestStorageReport:
    def test_full_32x32_ratio_exact(self):
        h = uniform_hierarchy([1, 1, 32, 1024])
        s = TleStore(h)
        for level in (3, 4):
            for n in h.level(level):
                s.update(1, n.id, True)
        rep = s.storage_report(32)
        assert rep["ratio"] is not None and rep["ratio"] * 32 == 1

    def test_empty_store_counts_allocated_cells_only(self, geo):
        rep = TleStore(geo).storage_report(32)
        assert rep == {"tle_bits": 0, "traditional_bits": 0, "selected": 0, "ratio": None}

    def test_ratio_formula_from_counts(self, store, geo):
        rep = store.storage_report(32)
        cells = sum(len(r) for r in store.records.values())
        capacity = sum(
            geo.node(c).width_class.capacity
            for r in store.records.values() for c in r
        )
        assert rep["tle_bits"] == capacity
        c_hat = rep["selected"] / cells
        avg_capacity = capacity / cells
        assert float(rep["ratio"]) == pytest.approx(avg_capacity / (c_hat * 32))


class TestTraversal:
    def test_two_page_rule_sequence(self, geo):
        s = TleStore(geo)
        pages = [
            TraversalPage((GEO["anchor"],), {GEO["north_america"]: True}),
            TraversalPage((GEO["north_america"],), {GEO["united_states"]: True}),
        ]
        trace = tle_traverse(s, 1, pages)
        assert trace.rules() == [
            "TLE1", "TLE2", "TLE3", "TLE4", "TLE5", "TLE6", "TLE7",
            "TLE2", "TLE3", "TLE4", "TLE5", "TLE6", "TLE8", "TLE9",
        ]

    def test_zero_pages(self, geo):
        trace = tle_traverse(TleStore(geo), 1, [])
        assert trace.rules() == ["TLE1", "TLE8", "TLE9"]

    def test_preset_reflects_current_bits(self, store):
        trace = tle_traverse(
            store, 1, [TraversalPage((GEO["anchor"],), {GEO["oceania"]: True})]
        )
        preset = next(e.payload["preset"] for e in trace if e.rule == "TLE5")
        assert preset[GEO["north_america"]] is True
        assert preset[GEO["oceania"]] is False
        assert store.lookup(1, GEO["oceania"])

    def test_final_state_matches_direct_updates(self, geo):
        a, b = TleStore(geo), TleStore(geo)
        pages = [
            TraversalPage((GEO["anchor"],), {GEO["asia"]: True, GEO["europe"]: True}),
            TraversalPage((GEO["europe"],), {GEO["france"]: True}),
        ]
        tle_traverse(a, 5, pages)
        for node in ("asia", "europe", "france"):
            b.update(5, GEO[node], True)
        assert a.selection_set(5) == b.selection_set(5)

    def test_page_deselection_clears_the_bit(self, store):
        trace = tle_traverse(
            store, 1, [TraversalPage((GEO["anchor"],), {GEO["asia"]: False})]
        )
        applied = next(e.payload["applied"] for e in trace if e.rule == "TLE6")
        assert applied == {GEO["asia"]: False}
        assert not store.lookup(1, GEO["asia"])
        assert store.records[(1, GEO["root"])][GEO["anchor"]] == 5

    def test_page_without_selections_allocates_no_record(self, geo):
        """TLE4 fetches each page grandparent's record; only a write
        allocates one, so a page that selects nothing leaves the store
        empty."""
        s = TleStore(geo)
        page = TraversalPage((GEO["anchor"], GEO["europe"]), {})
        trace = tle_traverse(s, 1, [page])
        assert next(e.payload for e in trace if e.rule == "TLE4") == {
            "page": 1, "units": [GEO["root"], GEO["anchor"]]}
        assert s.counter.steps == 2 + LOOKUP_STEP_BUDGET * 10  # 2 records, 10 presets
        assert s.records == {}
        report = s.storage_report(key_bits=32)
        assert (report["tle_bits"], report["selected"]) == (0, 0)

    def test_unknown_parent_page(self, geo):
        with pytest.raises(Exception, match="unknown|grandparent"):
            tle_traverse(TleStore(geo), 1, [TraversalPage((GEO["root"],), {})])


class TestReportPaths:
    def test_reproduces_reference_report(self, store):
        assert store.report_paths(1) == GEO_REPORT_LINES

    def test_empty_selection_empty_report(self, geo):
        assert TleStore(geo).report_paths(1) == []

    def test_matches_brute_force_path_oracle(self, store, geo):
        """Enumerate selected nodes, walk to root, keep maximal chains."""
        selected = store.selection_set(1)
        maximal = [
            n for n in selected
            if not any(c.id in selected for c in geo.children(n))
        ]
        paths = set()
        for n in maximal:
            chain = [geo.node(n).name]
            cur = geo.parent(n)
            while cur is not None:
                chain.append(cur.name)
                cur = geo.parent(cur.id)
            paths.add(" > ".join(reversed(chain)))
        assert sorted(paths) == store.report_paths(1)


def reference_selected_children(store, subject, parent_id):
    """The filter over the parent's whole children list that the set-bit
    walk replaced: each child whose bit is set, so a bit with no child is
    never seen."""
    h = store.hierarchy
    children = h.children(parent_id)
    if not children:
        return []
    if children[0].level < MIN_SELECTABLE_LEVEL:
        return children
    cells = store.records.get((subject, h.node(parent_id).parent_id))
    if cells is None:
        return []
    mask = cells[parent_id]
    return [c for c in children if (mask >> c.child_index) & 1]


def reference_report(store, subject):
    """(selection set, report paths) over ``reference_selected_children``."""
    h = store.hierarchy
    selected, paths = set(), []
    names = {h.root_id: h.root.name}
    frontier = [h.root_id]
    while frontier:
        parent = frontier.pop()
        children = reference_selected_children(store, subject, parent)
        for child in children:
            if child.level >= MIN_SELECTABLE_LEVEL:
                selected.add(child.id)
            names[child.id] = f"{names[parent]} > {child.name}"
            frontier.append(child.id)
        if not children and h.node(parent).level >= MIN_SELECTABLE_LEVEL:
            paths.append(names[parent])
    return selected, sorted(paths)


class TestDanglingBits:
    """A snapshot may set a bit that has no child; every query ignores it."""

    # (column, bit) of each added bit, in the worked state of subject 1:
    # past the last child of a dense parent, selected (Europe: bits 0..2)
    # or childless in the selection (Asia: bits 0..1, none set), and in the
    # gaps of sparse parents (the United States: children at 1, 4, 11 and
    # 18; Canada: at 0 and 12; Maryland: at 2 and 12).
    DANGLING = [
        ("europe", 5), ("europe", 31), ("asia", 7),
        ("united_states", 0), ("united_states", 2), ("united_states", 63),
        ("canada", 5), ("maryland", 3),
    ]

    @pytest.fixture()
    def dangling_store(self, store, geo, tmp_path):
        path = tmp_path / "snap.json"
        store.save_snapshot(path)
        doc = json.loads(path.read_text())
        for column, bit in self.DANGLING:
            col = GEO[column]
            parent = geo.node(col).parent_id
            record = next(r for r in doc["records"] if r["unit_id"] == parent)
            record["cells"][str(col)] |= 1 << bit
        path.write_text(json.dumps(doc))
        return TleStore.load_snapshot(geo, path)

    def test_bits_are_set_and_childless(self, dangling_store, geo):
        for column, bit in self.DANGLING:
            col = geo.node(GEO[column])
            assert dangling_store.records[(1, col.parent_id)][col.id] >> bit & 1
            assert bit not in {c.child_index for c in geo.children(col.id)}

    def test_selected_children_equal_the_reference(self, dangling_store, geo):
        for parent_id in geo.nodes:
            assert dangling_store.selected_children(1, parent_id) == (
                reference_selected_children(dangling_store, 1, parent_id)), parent_id

    def test_selection_set_and_report_equal_the_reference(self, dangling_store):
        selected, paths = reference_report(dangling_store, 1)
        assert dangling_store.selection_set(1) == selected == set(GEO_SELECTIONS)
        assert dangling_store.report_paths(1) == paths == GEO_REPORT_LINES


class TestSnapshot:
    def test_round_trip(self, store, geo, tmp_path):
        path = tmp_path / "snap.json"
        store.save_snapshot(path)
        text = path.read_text()
        assert '"0x10000040"' in text  # variable-width cell serialized as hex
        assert "264192" in text
        again = TleStore.load_snapshot(geo, path)
        assert again.selection_set(1) == store.selection_set(1)
        assert again.report_paths(1) == GEO_REPORT_LINES

    # (size, sha256) of the exact snapshot bytes: the worked state, whose
    # var:120 Virginia cell is "0x10000040", and the same state after
    # resetting the United States, which writes that cell back as "0x0".
    PINNED = {
        "worked": (3466, "3a70c028bc8e5b553857322539dc494c7b6d088c3440ed94635b803cdc6f31fe"),
        "us_reset": (3449, "2ed3323650f7d351d928ac368248f6d13d9d61867dcaf36fdac0bc9f296d7d6f"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_bytes_pinned(self, store, geo, tmp_path, case):
        if case == "us_reset":
            store.reset_subtree(1, GEO["united_states"])
        path, again = tmp_path / "snap.json", tmp_path / "again.json"
        store.save_snapshot(path)
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == self.PINNED[case]
        TleStore.load_snapshot(geo, path).save_snapshot(again)
        assert again.read_bytes() == data


class TestHierarchicalConsistency:
    def test_full_scan_after_reset_ops(self, geo):
        """After commits that deselect via reset, no descendant is selected
        under an unselected ancestor that has a schema unit."""
        s = TleStore(geo)
        for node_id in GEO_SELECTIONS:
            s.update(1, node_id, True)
        s.reset_subtree(1, GEO["united_states"])
        s.reset_subtree(1, GEO["europe"])
        for (subject, unit_id), rec in s.records.items():
            for col, mask in rec.items():
                for child in decode(mask, geo.node(col), geo):
                    parent = geo.parent(child.id)
                    if parent is not None and parent.level >= 3:
                        assert s.lookup(subject, parent.id), child
