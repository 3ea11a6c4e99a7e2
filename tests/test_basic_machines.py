"""The four basic machines against brute-force traversal oracles."""

import copy
import random

import pytest

from treeflow.basic_machines import (
    AcyclicityViolationError,
    Dag,
    LoopUnboundedError,
    dfd_visit_order,
    run_bfd,
    run_cdd,
    run_dad,
    run_dfd,
)
from treeflow.fixtures import perfect_tree, uniform_hierarchy
from treeflow.hierarchy import Hierarchy, load_hierarchy
from treeflow.scenario import CddScript, Scenario
from treeflow.csp import check_csp_conformance
from treeflow.verify import check_well_formed, run_all_checks


def random_tree(rng: random.Random, max_nodes: int = 25) -> Hierarchy:
    n = rng.randint(1, max_nodes)
    rows = [
        {"id": 0, "name": "n0", "parent_id": None, "child_index": 0, "level": 1,
         "width_class": "int64", "name_type_id": None}
    ]
    levels = {0: 1}
    per_parent: dict[int, int] = {}
    for i in range(1, n):
        parent = rng.randrange(i)
        ci = per_parent.get(parent, 0)
        per_parent[parent] = ci + 1
        levels[i] = levels[parent] + 1
        rows.append(
            {"id": i, "name": f"n{i}", "parent_id": parent, "child_index": ci,
             "level": levels[i], "width_class": "int64", "name_type_id": None}
        )
    return load_hierarchy(rows)


def recursive_preorder(h: Hierarchy) -> list[int]:
    out = []

    def walk(node_id: int):
        out.append(node_id)
        for child in h.children(node_id):
            walk(child.id)

    walk(h.root_id)
    return out


class TestDfd:
    def test_example_tree_visit_order(self):
        rows = [
            {"id": 1, "name": "C1", "parent_id": None, "child_index": 0, "level": 1,
             "width_class": "int32", "name_type_id": None},
        ]
        for i, (name, parent, ci, level) in enumerate(
            [("C21", 1, 0, 2), ("C22", 1, 1, 2), ("C23", 1, 2, 2),
             ("C31", 2, 0, 3), ("C32", 3, 0, 3), ("C33", 4, 0, 3), ("C34", 4, 1, 3)],
            start=2,
        ):
            rows.append({"id": i, "name": name, "parent_id": parent, "child_index": ci,
                         "level": level, "width_class": "int32", "name_type_id": None})
        h = load_hierarchy(rows)
        trace = run_dfd(h)
        names = {n.id: n.name for n in h.nodes.values()}
        order = [names[i] for i in dfd_visit_order(trace)]
        assert order == ["C1", "C21", "C31", "C22", "C32", "C23", "C33", "C34"]
        assert trace.final_state == "T"

    def test_single_node_trace(self):
        h = uniform_hierarchy([1])
        assert run_dfd(h).rules() == ["DF1", "DF3", "DF5", "DF7"]

    @pytest.mark.parametrize("seed", range(100))
    def test_visit_order_matches_recursive_preorder(self, seed):
        h = random_tree(random.Random(seed))
        trace = run_dfd(h)
        assert dfd_visit_order(trace) == recursive_preorder(h)
        assert check_well_formed(trace).ok

    def test_each_subtree_validated_once(self):
        h = perfect_tree(2, 4)
        trace = run_dfd(h)
        validated = [e.payload["subtree_root"] for e in trace if e.rule == "DF5"]
        internal = [n.id for n in h.nodes.values() if h.children(n.id)]
        assert sorted(validated) == sorted(internal)

    def test_single_path_completion(self):
        """When a leaf is processed every ancestor came earlier."""
        h = perfect_tree(3, 4)
        order = dfd_visit_order(run_dfd(h))
        position = {n: i for i, n in enumerate(order)}
        for n in h.nodes.values():
            if not h.children(n.id):
                for anc in h.ancestors(n.id):
                    assert position[anc.id] < position[n.id]


class TestBfd:
    def test_root_only(self):
        assert run_bfd(uniform_hierarchy([1])).rules() == ["BF1", "BF2", "BF3", "BF5"]

    def test_three_level_tree_level_barriers(self):
        h = perfect_tree(2, 3)
        trace = run_bfd(h)
        level2 = [i for i, e in enumerate(trace)
                  if e.rule == "BF2" and e.payload["level"] == 2]
        level3 = [i for i, e in enumerate(trace)
                  if e.rule == "BF2" and e.payload["level"] == 3]
        assert max(level2) < min(level3)

    @pytest.mark.parametrize("seed", range(100))
    def test_order_preservation_against_bfs_oracle(self, seed):
        """Min index of any level-(k+1) processing > max index of level-k
        validation, on random trees; processed sets equal a plain BFS."""
        h = random_tree(random.Random(seed))
        trace = run_bfd(h)
        assert check_well_formed(trace).ok
        validation_idx: dict[int, int] = {}
        first_process: dict[int, int] = {}
        processed: dict[int, set] = {}
        for i, e in enumerate(trace):
            if e.rule == "BF3":
                validation_idx[e.payload["level"]] = i
            if e.rule == "BF2":
                k = e.payload["level"]
                first_process.setdefault(k, i)
                processed.setdefault(k, set()).add(e.payload["node"])
        for k in sorted(validation_idx):
            if k + 1 in first_process:
                assert first_process[k + 1] > validation_idx[k]
        for k in h.levels():
            assert processed[k] == {n.id for n in h.level(k)}


class TestDad:
    def test_chain_processes_in_topological_order(self):
        # Continent -> country -> province chain.
        rows = [
            {"id": 1, "name": "Africa", "parent_id": None, "child_index": 0,
             "level": 1, "width_class": "int32", "name_type_id": None},
            {"id": 2, "name": "Algeria", "parent_id": 1, "child_index": 0,
             "level": 2, "width_class": "int32", "name_type_id": None},
            {"id": 3, "name": "Adrar", "parent_id": 2, "child_index": 0,
             "level": 3, "width_class": "int32", "name_type_id": None},
        ]
        dag = Dag.from_hierarchy(load_hierarchy(rows))
        trace = run_dad(dag)
        order = [e.payload["node"] for e in trace if e.rule == "DA3"]
        assert order == [1, 2, 3]
        assert trace.final_state == "T"

    def test_single_node(self):
        dag = Dag.from_hierarchy(uniform_hierarchy([1]))
        assert run_dad(dag).rules() == ["DA1", "DA2", "DA3", "DA6"]

    def test_cycle_rejected_at_load(self):
        dag = Dag(node_names={1: "a", 2: "b"}, deps={1: {2}, 2: {1}}, root_id=1)
        with pytest.raises(AcyclicityViolationError):
            run_dad(dag)

    def test_diamond_dependency_completeness(self):
        dag = Dag(
            node_names={1: "r", 2: "a", 3: "b", 4: "c"},
            deps={1: set(), 2: {1}, 3: {1}, 4: {2, 3}},
            root_id=1,
        )
        trace = run_dad(dag)
        order = [e.payload["node"] for e in trace if e.rule == "DA3"]
        assert order.index(4) > order.index(2)
        assert order.index(4) > order.index(3)

    def test_scripted_extension_preserves_acyclicity_and_completeness(self):
        dag = Dag.from_hierarchy(perfect_tree(2, 3))
        sc = Scenario(dad_missing_deps={2: ["auth-helper"], 5: ["schema"]})
        trace = run_dad(dag, sc)
        assert "DA4" in trace.rules() and "DA5" in trace.rules()
        assert trace.final_state == "T"
        assert dag.is_acyclic()
        _assert_dependency_completeness(dag, trace)

    def test_deps_edited_after_construction_with_extensions(self):
        """run_dad reads the dependency map as it stands at run time, and
        keeps its dependents index current across scripted extensions."""
        dag = Dag.from_hierarchy(perfect_tree(2, 3))
        assert dag.deps[5] == {1} and dag.deps[6] == {2}
        dag.deps[6].add(3)       # a cross edge added after construction
        dag.deps[5].discard(1)   # and one moved: 5 now hangs off 4
        dag.deps[5].add(4)
        sc = Scenario(dad_missing_deps={3: ["cfg"], 5: ["schema"]})
        trace = run_dad(dag, sc)
        assert trace.final_state == "T"
        _assert_dependency_completeness(dag, trace)
        order = [e.payload["node"] for e in trace if e.rule == "DA3"]
        extensions = {e.payload["node"]: e.payload["new_node"]
                      for e in trace if e.rule == "DA4" and "new_node" in e.payload}
        assert sorted(extensions) == [3, 5]
        assert order.index(extensions[3]) < order.index(3) < order.index(6)
        assert order.index(4) < order.index(extensions[5]) < order.index(5)
        enqueued_by = {e.payload["node"]: e.payload["children_enqueued"]
                       for e in trace if e.rule == "DA3"}
        assert 5 not in enqueued_by[1]            # the removed edge is gone
        assert extensions[3] not in enqueued_by[0]

    def test_chain_away_from_the_root_is_traced_once_per_node(self):
        """Node i depends on node i+1 and the root is node 1: a node that is
        not ready waits for its dependency's DA3 instead of being re-queued,
        so the trace stays linear in the chain."""
        n = 200
        dag = Dag(node_names={i: str(i) for i in range(1, n + 1)},
                  deps={i: {i + 1} if i < n else set() for i in range(1, n + 1)},
                  root_id=1)
        trace = run_dad(dag)
        assert len(trace.events) <= 6 * n
        assert [e.payload["node"] for e in trace if e.rule == "DA3"] == list(range(n, 0, -1))
        assert all(v.ok for v in run_all_checks(trace))
        assert check_csp_conformance(trace).ok

    def test_root_with_a_wide_fan_in(self):
        """The root depends on 10,000 leaves: each leaf's DA3 lowers the
        root's count of unprocessed dependencies, and only the last one
        enqueues it."""
        n = 10_000
        dag = Dag(node_names={i: str(i) for i in range(n + 1)},
                  deps={0: set(range(1, n + 1))}, root_id=0)
        trace = run_dad(dag)
        assert len(trace.events) == 20_007  # DA1, root DA2 DA4 DA5, 2 per leaf, root DA2 DA3, DA6
        assert trace.final_state == "T"
        enqueued = [e.payload["children_enqueued"] for e in trace if e.rule == "DA3"]
        assert enqueued[:-2] == [[]] * (n - 1) and enqueued[-2:] == [[0], []]

    @pytest.mark.parametrize("seed", range(30))
    def test_dependency_completeness_against_topological_oracle(self, seed):
        h = random_tree(random.Random(seed))
        dag = Dag.from_hierarchy(h)
        rng = random.Random(seed + 1)
        # Extra cross edges that respect levels keep the DAG acyclic.
        ids = sorted(h.nodes)
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(ids, 2) if len(ids) > 1 else (None, None)
            if a is None:
                break
            lo, hi = sorted((a, b), key=lambda n: h.node(n).level)
            if h.node(lo).level < h.node(hi).level:
                dag.deps[hi].add(lo)
        trace = run_dad(dag)
        _assert_dependency_completeness(dag, trace)


def _assert_dependency_completeness(dag: Dag, trace) -> None:
    """Replay: every processed node's dependencies processed earlier, and the
    full order is one of the graph's topological orders."""
    order = [e.payload["node"] for e in trace if e.rule == "DA3"]
    position = {n: i for i, n in enumerate(order)}
    assert sorted(order) == sorted(dag.node_names)
    for v in order:
        for u in dag.deps[v]:
            assert position[u] < position[v], (u, v)


class TestCdd:
    def test_fail_once_then_recover(self):
        sc = Scenario(cdd=CddScript(test_failures={2: 1}, refine_iterations={2: 1}))
        trace = run_cdd([1, 2, 3], m_cap=4, scenario=sc)
        rules = trace.rules()
        i3a = rules.index("CD3a")
        assert rules[i3a + 1] == "CD4"
        assert "CD5" in rules[i3a:]
        assert trace.final_state == "T"

    def test_failure_free_single_increment(self):
        trace = run_cdd([1, 2], m_cap=3)
        assert trace.rules() == ["CD1", "CD2", "CD2", "CD5", "CD7"]

    def test_loop_unbounded_after_exactly_m_refines(self):
        m = 4
        sc = Scenario(cdd=CddScript(test_failures={1: 1}, refine_iterations={1: m + 1}))
        with pytest.raises(LoopUnboundedError) as exc:
            run_cdd([1], m_cap=m, scenario=sc)
        assert exc.value.attempts == m
        assert exc.value.component == 1

    def test_feedback_cycle_path(self):
        sc = Scenario(cdd=CddScript(feedback_cycles={3: 1}))
        rules = run_cdd([3], m_cap=2, scenario=sc).rules()
        assert "CD3b" in rules and rules[rules.index("CD3b") + 1] == "CD4"

    def test_increment_revision_via_cd6(self):
        sc = Scenario(
            increments=[[1], [2]],
            cdd=CddScript(increment_feedback={1: 1}),
        )
        trace = run_cdd([1, 2], m_cap=3, scenario=sc)
        assert "CD6" in trace.rules()
        assert trace.final_state == "T"
        assert check_well_formed(trace).ok

    def test_incremental_soundness(self):
        """Every finalize is preceded by validations covering its components."""
        sc = Scenario(increments=[[1, 2], [3]])
        trace = run_cdd([1, 2, 3], m_cap=2, scenario=sc)
        validated = []
        for e in trace:
            if e.rule == "CD5":
                validated.extend(e.payload["components"])
            if e.rule == "CD7":
                assert sorted(validated) == [1, 2, 3]
        assert check_well_formed(trace).ok


class TestPayloadsOwnTheirLists:
    """Every list in an emitted payload is the run's own: mutating it leaves
    the scenario, the hierarchy and the graph as they were, and no two
    payloads share a list."""

    @pytest.mark.parametrize("machine", ["dad", "dfd", "bfd", "cdd"])
    def test_mutating_payload_lists_leaves_the_inputs_unchanged(self, machine):
        h = perfect_tree(2, 3)
        children = {v: [c.id for c in h.children(v)] for v in h.nodes}
        dag = Dag.from_hierarchy(h)
        scenario = Scenario(dad_missing_deps={2: ["ext"]}, increments=[[1, 2], [3]],
                            cdd=CddScript(test_failures={1: 1}, increment_feedback={1: 2}))
        before = copy.deepcopy(scenario)
        trace = {"dad": lambda: run_dad(dag, scenario), "dfd": lambda: run_dfd(h),
                 "bfd": lambda: run_bfd(h), "cdd": lambda: run_cdd([1, 2, 3], 3, scenario)}[machine]()
        deps = copy.deepcopy(dag.deps)  # a dad run extends the graph; its payloads may not
        lists = [value for ev in trace for value in ev.payload.values() if isinstance(value, list)]
        assert lists and len({id(value) for value in lists}) == len(lists)
        for value in lists:
            value.append(99)
        assert scenario == before
        assert {v: [c.id for c in h.children(v)] for v in h.nodes} == children
        assert dag.deps == deps
