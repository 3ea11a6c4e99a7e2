"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here exactly as stated; nothing is deferred to
calibration.
"""

import random
import time
from fractions import Fraction

import pytest

from treeflow.basic_machines import (
    Dag,
    LoopUnboundedError,
    dfd_visit_order,
    run_bfd,
    run_cdd,
    run_dad,
    run_dfd,
)
from treeflow.csp import accept_events, annotate_trace, check_csp_conformance
from treeflow.fixtures import (
    GEO,
    GEO_REPORT_LINES,
    PDFD_MVP_EXPECTED_ATTEMPTS,
    bench_hierarchy,
    geo_hierarchy,
    geo_store,
    pbfd_mvp_scenario,
    pdfd_mvp_scenario,
    perfect_tree,
    uniform_hierarchy,
    visited_places_hierarchy,
)
from treeflow.hierarchy import remaining_after_prune
from treeflow.hybrid_machines import run_pbfd, run_pdfd
from treeflow.measure import trace_length_cap
from treeflow.oracle import NormalizedStore
from treeflow.scenario import Scenario, TraceOriginStrategy
from treeflow.tle import OrphanSelectionError, TleStore, TraversalPage, decode, tle_traverse
from treeflow.verify import (
    check_bounded_refinement,
    check_deadlock_freeness,
    check_finalization,
    check_measure_descent,
    check_rule_legality,
    check_well_formed,
)


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def timed(budget_s: float):
    """Fail the criterion when its stated runtime budget is exceeded."""

    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                elapsed = time.perf_counter() - self.start
                assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.2f}s"

    return _Timer()


def test_01_bit_exact_decode_of_worked_values():
    with timed(1.0):
        h = geo_hierarchy()
        store = geo_store()

        def cell(unit, col):
            return store.records[(1, GEO[unit])][GEO[col]]

        def names(mask, parent):
            return {n.name for n in decode(mask, h.node(GEO[parent]), h)}

        # Continent mask 21 names exactly the three continents.
        assert cell("root", "anchor") == 21
        assert names(cell("root", "anchor"), "anchor") == {
            "North America", "Europe", "Asia"
        }
        # Country masks 3 / 3 / 0.
        assert cell("anchor", "north_america") == 3
        assert names(cell("anchor", "north_america"), "north_america") == {
            "United States", "Canada"
        }
        assert cell("anchor", "europe") == 3
        assert names(cell("anchor", "europe"), "europe") == {
            "United Kingdom", "France"
        }
        assert cell("anchor", "asia") == 0
        # State masks: 264192 has bits 11 and 18; 4097 decodes to the two
        # selected provinces.
        assert cell("north_america", "united_states") == 264192
        us = cell("north_america", "united_states")
        assert [i for i in range(us.bit_length()) if (us >> i) & 1] == [11, 18]
        assert names(cell("north_america", "united_states"), "united_states") == {
            "Virginia", "Maryland"
        }
        assert cell("north_america", "canada") == 4097
        assert names(cell("north_america", "canada"), "canada") == {
            "Ontario", "Nunavut"
        }
        # City masks 3/3 and 257/0.
        assert cell("maryland", "baltimore_county") == 3
        assert cell("maryland", "howard_county") == 3
        assert names(cell("maryland", "howard_county"), "howard_county") == {
            "Columbia MD", "Ellicott City"
        }
        assert cell("virginia", "arlington_county") == 257
        assert names(cell("virginia", "arlington_county"), "arlington_county") == {
            "Arlington", "Virginia Square"
        }
        assert cell("virginia", "fairfax_county") == 0
        # Continent encoding identity: first + fifth bit = 17.  North America
        # and Asia are the continents at bits 0 and 4.
        fresh = TleStore(h)
        fresh.update(1, GEO["north_america"], True)
        fresh.update(1, GEO["asia"], True)
        assert fresh.records[(1, GEO["root"])][GEO["anchor"]] == 17
    report(1, "all worked bitmask values decode bit-exactly")


def test_02_path_report_byte_for_byte():
    with timed(1.0):
        lines = geo_store().report_paths(1)
        assert lines == sorted(lines)
        assert lines == GEO_REPORT_LINES
        assert len(lines) == 12
    report(2, "path report reproduces the 12 reference lines byte-for-byte")


def test_03_storage_ratio_exact_and_randomized():
    with timed(10.0):
        # Full selection, 32 children per parent, 32-bit keys: exactly 1/32.
        h = uniform_hierarchy([1, 1, 32, 1024])
        store = TleStore(h)
        for level in (3, 4):
            for n in h.level(level):
                store.update(1, n.id, True)
        rep = store.storage_report(32)
        assert rep["ratio"] == Fraction(1, 32)

        # Randomized densities over >= 10^4 selections reproduce the
        # capacity / (mean-selected x key-bits) form within 1%.
        rng = random.Random(42)
        store2 = TleStore(h)
        selections = 0
        for subject in range(1, 17):
            for n in h.level(3):
                store2.update(subject, n.id, True)
                selections += 1
            for n in h.level(4):
                if rng.random() < 0.7:
                    store2.update(subject, n.id, True)
                    selections += 1
        assert selections >= 10_000
        rep2 = store2.storage_report(32)
        cells = sum(len(r) for r in store2.records.values())
        c_hat = rep2["selected"] / cells
        capacity = 32  # uniform cell width in this hierarchy
        expected = capacity / (c_hat * 32)
        assert float(rep2["ratio"]) == pytest.approx(expected, rel=0.01)
    report(3, "storage ratio exactly 1/32 full, matches C/(c-hat*k) randomized")


def test_04_constant_step_counts_across_sizes():
    with timed(60.0):
        lookup_counts, update_counts = set(), set()
        for scale in ("small", "medium", "large"):
            h = bench_hierarchy(scale)
            store = TleStore(h)
            leaf = h.level(h.max_level)[0]
            chain = [a.id for a in reversed(h.ancestors(leaf.id)) if a.level >= 3]
            for node in chain + [leaf.id]:
                store.update(1, node, True)
            before = store.counter.steps
            store.lookup(1, leaf.id)
            lookup_counts.add(store.counter.steps - before)
            before = store.counter.steps
            store.update(1, leaf.id, True)
            update_counts.add(store.counter.steps - before)
        assert len(lookup_counts) == 1, f"lookup steps grew: {lookup_counts}"
        assert len(update_counts) == 1, f"update steps grew: {update_counts}"

        # Batch budget: steps <= c x records with the fitted constant stable
        # while the record population scales 64x.
        h = uniform_hierarchy([1, 1, 8, 32])
        constants = []
        for subjects in (1, 8, 64):
            store = TleStore(h)
            for s in range(subjects):
                for n in h.level(3):
                    store.update(s, n.id, True)
            before = store.counter.steps
            store.batch_query(lambda u, c, m: m != 0)
            steps = store.counter.steps - before
            records = len(store.records)
            assert steps <= (1 + 8) * records  # 1 visit + up to 8 columns
            constants.append(steps / records)
        assert len(set(constants)) == 1, f"per-record constant drifted: {constants}"
    report(4, f"lookup/update steps flat ({lookup_counts.pop()}/{update_counts.pop()}), batch constant stable")


def test_05_oracle_equivalence():
    with timed(60.0):
        # Exhaustive: every op sequence of length <= 6 on 3 levels, branching
        # 2, via minimal-depth joint-state search (deterministic stores make
        # per-state checking equivalent to per-sequence checking).
        from collections import deque

        h = uniform_hierarchy([1, 2, 4])
        nodes = [n.id for n in sorted(h.nodes.values(), key=lambda x: x.id) if n.level >= 3]
        ops = [(op, n) for op in ("select", "deselect", "reset") for n in nodes]

        def key_of(store, oracle):
            cells = tuple(
                (k, tuple(sorted((c, m) for c, m in rec.items())))
                for k, rec in sorted(store.records.items())
            )
            rows = tuple((r.node_id, r.is_deleted) for r in oracle.rows)
            return cells, rows

        def apply(store, oracle, op, node):
            for target, is_store in ((store, True), (oracle, False)):
                try:
                    if op == "select":
                        (target.update(1, node, True) if is_store else target.select(1, node))
                    elif op == "deselect":
                        (target.update(1, node, False) if is_store else target.deselect(1, node))
                    else:
                        target.reset_subtree(1, node)
                except OrphanSelectionError:
                    pass

        seen = set()
        frontier = deque([()])
        mismatches = 0
        while frontier:
            prefix = frontier.popleft()
            store, oracle = TleStore(h), NormalizedStore(h)
            for op, n in prefix:
                apply(store, oracle, op, n)
            key = key_of(store, oracle)
            if key in seen:
                continue
            seen.add(key)
            if store.selection_set(1) != oracle.selection_set(1):
                mismatches += 1
            if len(prefix) < 6:
                frontier.extend(prefix + (step,) for step in ops)
        assert mismatches == 0

        # Randomized: 10^3 sequences of length <= 100 on a 5-level hierarchy.
        h5 = perfect_tree(2, 5)
        nodes5 = [n.id for n in h5.nodes.values() if n.level >= 3]
        rng = random.Random(7)
        for _seq in range(1000):
            store, oracle = TleStore(h5), NormalizedStore(h5)
            for _ in range(rng.randint(1, 100)):
                op = rng.choice(("select", "select", "deselect", "reset"))
                node = rng.choice(nodes5)
                apply(store, oracle, op, node)
            assert store.selection_set(1) == oracle.selection_set(1)
    report(5, "store and oracle selection sets identical, exhaustive + randomized")


def test_06_pruned_tree_formula():
    with timed(1.0):
        total, remaining, fraction = remaining_after_prune(3, 6)
        assert (total, remaining) == (1093, 121)
        assert abs(float(fraction) - 121 / 1093) < 1e-4
    report(6, "pruned ternary tree: (1093, 121), fraction within 1e-4")


def test_07_pdfd_mvp_replay():
    with timed(1.0):
        result = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
        assert result.outcome == "T"
        assert result.attempts == PDFD_MVP_EXPECTED_ATTEMPTS
        pairs = []
        for e in result.trace:
            if e.rule == "PD2a":
                pairs.append(("fail", e.payload["level"], e.to_state))
            elif e.rule == "PD3b":
                pairs.append(("resume", e.payload["range_end"]))
        assert pairs == [
            ("fail", 3, "S1R(2)"), ("resume", 3),
            ("fail", 4, "S1R(2)"), ("resume", 4),
            ("fail", 5, "S1R(2)"), ("resume", 5),
        ]
    report(7, "depth-led replay: three refine/resume pairs, counters {2:3,3:3,4:2,5:1}, T")


def test_08_pbfd_mvp_replay():
    with timed(1.0):
        result = run_pbfd(geo_hierarchy(), pbfd_mvp_scenario())
        assert result.outcome == "T"
        assert max(result.attempts.values()) == 1
        backtracks = [e for e in result.trace if e.rule == "PB3"]
        assert len(backtracks) == 1
        assert backtracks[0].to_state == "S1R(1)"
        assert backtracks[0].payload["level"] == 3
    report(8, "breadth-led replay: one refinement cycle, max attempts 1, T")


def test_09_termination_and_invariance_fuzz():
    with timed(300.0):
        rng = random.Random(2024)
        runs = 0
        for trial in range(500):
            levels = rng.randint(1, 6)
            sizes = [1]
            total = 1
            for _ in range(levels - 1):
                width = rng.randint(1, max(1, (50 - total) // 2))
                width = min(width, 8)
                sizes.append(width)
                total += width
            h = uniform_hierarchy(sizes)
            assert len(h) <= 50
            r_max = rng.choice([1, 2, 5])
            origin = (
                TraceOriginStrategy.fixed(rng.randint(1, levels))
                if rng.random() < 0.7
                else TraceOriginStrategy.dependency_min()
            )
            sc = Scenario(
                r_max=r_max,
                trace_origin=origin,
                seed=trial,
                random_failure_rate=rng.choice([0.0, 0.05, 0.2, 0.6]),
            )
            for runner in (run_pdfd, run_pbfd):
                result = runner(h, sc)
                runs += 1
                assert result.outcome in ("T", "S5")
                cap = trace_length_cap(len(h), h.max_level, r_max)
                assert len(result.trace) <= cap
                assert check_well_formed(result.trace).ok
                assert check_rule_legality(result.trace).ok
                assert check_measure_descent(result.trace).ok
                assert check_bounded_refinement(result.trace).ok
                assert check_finalization(result.trace).ok
        assert runs == 1000
    report(9, "500 fuzzed scenarios x both machines: all terminate inside the cap, zero violations")


def test_10_deadlock_freeness_exhaustive():
    with timed(60.0):
        h = uniform_hierarchy([1, 2, 2])
        for methodology in ("pdfd", "pbfd"):
            verdict = check_deadlock_freeness(methodology, h, r_max=1)
            assert verdict.ok, verdict.detail
    report(10, "exhaustive skeleton enumeration: T and S5 are the only sinks")


def test_11_csp_conformance_golden_and_transposed():
    with timed(10.0):
        h = perfect_tree(2, 3)
        plain = Scenario(r_max=2, trace_origin=TraceOriginStrategy.fixed(1))
        store = TleStore(geo_hierarchy())
        goldens = [
            ("dad", run_dad(Dag.from_hierarchy(h))),
            ("dfd", run_dfd(h)),
            ("bfd", run_bfd(h)),
            ("cdd", run_cdd([1, 2], m_cap=2)),
            ("pdfd", run_pdfd(h, plain).trace),
            ("pbfd", run_pbfd(h, plain).trace),
            ("tle", tle_traverse(store, 1, [TraversalPage((1,), {2: True})])),
        ]
        for methodology, trace in goldens:
            verdict = check_csp_conformance(trace, methodology)
            assert verdict.ok, (methodology, verdict.detail)
            events = [name for _s, name in annotate_trace(trace, methodology)]
            domain = None
            if methodology in ("pdfd", "pbfd"):
                domain = int(trace.events[0].payload["L"])
            rejected = 0
            window = 2 if methodology == "cdd" else 4
            for pos in range(min(window, len(events) - 1)):
                if events[pos] == events[pos + 1]:
                    continue
                swapped = list(events)
                swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
                assert not accept_events(methodology, swapped, domain).accepted
                rejected += 1
            assert rejected >= 1
    report(11, "all seven golden traces accepted; early transpositions rejected")


def test_12_basic_machine_oracles():
    with timed(30.0):
        rng = random.Random(5)

        def random_tree(max_nodes=30):
            n = rng.randint(1, max_nodes)
            rows = [{"id": 0, "name": "n0", "parent_id": None, "child_index": 0,
                     "level": 1, "width_class": "int64", "name_type_id": None}]
            levels, per_parent = {0: 1}, {}
            for i in range(1, n):
                parent = rng.randrange(i)
                ci = per_parent.get(parent, 0)
                per_parent[parent] = ci + 1
                levels[i] = levels[parent] + 1
                rows.append({"id": i, "name": f"n{i}", "parent_id": parent,
                             "child_index": ci, "level": levels[i],
                             "width_class": "int64", "name_type_id": None})
            from treeflow.hierarchy import load_hierarchy
            return load_hierarchy(rows)

        # Depth-first visit order vs recursive pre-order on 100 random trees.
        for _ in range(100):
            h = random_tree()
            order = dfd_visit_order(run_dfd(h))
            expected = []

            def walk(nid):
                expected.append(nid)
                for c in h.children(nid):
                    walk(c.id)

            walk(h.root_id)
            assert order == expected

        # Breadth-first level barriers on 100 random trees.
        for _ in range(100):
            h = random_tree()
            trace = run_bfd(h)
            validated_at, first_proc = {}, {}
            for i, e in enumerate(trace):
                if e.rule == "BF3":
                    validated_at[e.payload["level"]] = i
                if e.rule == "BF2":
                    first_proc.setdefault(e.payload["level"], i)
            for k, idx in validated_at.items():
                if k + 1 in first_proc:
                    assert first_proc[k + 1] > idx

        # Dependency completeness against the topological-order oracle.
        for _ in range(50):
            h = random_tree()
            dag = Dag.from_hierarchy(h)
            trace = run_dad(dag)
            order = [e.payload["node"] for e in trace if e.rule == "DA3"]
            pos = {n: i for i, n in enumerate(order)}
            assert sorted(order) == sorted(dag.node_names)
            for v in order:
                assert all(pos[u] < pos[v] for u in dag.deps[v])

        # Bounded refinement raises after exactly the cap.
        from treeflow.scenario import CddScript

        m = 3
        sc = Scenario(cdd=CddScript(test_failures={1: 1}, refine_iterations={1: m + 1}))
        with pytest.raises(LoopUnboundedError) as exc:
            run_cdd([1], m_cap=m, scenario=sc)
        assert exc.value.attempts == m
    report(12, "traversal oracles and the bounded-refinement count all agree")
