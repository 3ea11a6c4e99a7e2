"""Depth-led and breadth-led machines: replay profiles, trace-origin
resolution, refinement exhaustion, and order-independence."""

import copy

import pytest

from treeflow.fixtures import (
    PDFD_MVP_EXPECTED_ATTEMPTS,
    geo_hierarchy,
    pbfd_mvp_scenario,
    pdfd_mvp_scenario,
    perfect_tree,
    uniform_hierarchy,
    visited_places_hierarchy,
)
from treeflow.hybrid_machines import run_pbfd, run_pdfd, start_run
from treeflow.scenario import (
    Scenario,
    TraceOriginStrategy,
    UndefinedTraceOriginError,
    resolve_trace_origin,
)
from treeflow.verify import enumerate_runs, check_well_formed


class TestTraceOrigin:
    def test_fixed_two_at_level_four(self):
        strat = TraceOriginStrategy.fixed(2)
        j = resolve_trace_origin(strat, 4, {10})
        assert j == 2
        assert 4 - j + 1 == 3  # refinement range covers three levels

    def test_fixed_clamps_to_failing_level(self):
        assert resolve_trace_origin(TraceOriginStrategy.fixed(5), 3, {1}) == 3

    def test_scripted_missing_entry(self):
        strat = TraceOriginStrategy.scripted_map({4: 2})
        with pytest.raises(UndefinedTraceOriginError):
            resolve_trace_origin(strat, 3, {1})

    def test_scripted_rejects_origin_above_failing_level(self):
        with pytest.raises(Exception):
            TraceOriginStrategy.scripted_map({2: 5})

    def test_dependency_min_takes_min_implicated_ancestor_level(self):
        h = perfect_tree(2, 4)
        leaf = h.level(4)[0]
        ancestors = h.ancestors(leaf.id)
        implicated = {ancestors[0].id, ancestors[2].id}  # levels 3 and 1
        j = resolve_trace_origin(
            TraceOriginStrategy.dependency_min(), 4, {leaf.id},
            hierarchy=h, implicated=implicated,
        )
        assert j == 1

    def test_dependency_min_defaults_to_failing_level(self):
        h = perfect_tree(2, 4)
        leaf = h.level(4)[0]
        j = resolve_trace_origin(
            TraceOriginStrategy.dependency_min(), 4, {leaf.id},
            hierarchy=h, implicated=set(),
        )
        assert j == 4


class TestPdfdReplay:
    @pytest.fixture(scope="class")
    @staticmethod
    def result():
        return run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())

    def test_terminates_successfully(self, result):
        assert result.outcome == "T"
        assert result.trace.final_state == "T"

    def test_refinement_counters(self, result):
        assert result.attempts == PDFD_MVP_EXPECTED_ATTEMPTS

    def test_backtrack_resume_pairs(self, result):
        pairs = []
        for e in result.trace:
            if e.rule == "PD2a":
                pairs.append(("fail", e.payload["level"], e.to_state))
            if e.rule == "PD3b":
                pairs.append(("resume", e.payload["range_end"]))
        assert pairs == [
            ("fail", 3, "S1R(2)"), ("resume", 3),
            ("fail", 4, "S1R(2)"), ("resume", 4),
            ("fail", 5, "S1R(2)"), ("resume", 5),
        ]

    def test_all_nodes_finalized(self, result):
        assert all(v == 2 for v in result.statuses.values())


class TestPbfdReplay:
    @pytest.fixture(scope="class")
    @staticmethod
    def result():
        return run_pbfd(geo_hierarchy(), pbfd_mvp_scenario())

    def test_terminates_successfully(self, result):
        assert result.outcome == "T"

    def test_single_refinement_cycle_max_attempts_one(self, result):
        assert max(result.attempts.values()) == 1
        assert {l for l, c in result.attempts.items() if c} == {1, 2, 3}

    def test_backtrack_and_depth_resume_path(self, result):
        rules = result.trace.rules()
        i = rules.index("PB3")
        assert "PB3b" in rules[i:]
        assert "PB6" in rules[i:]

    def test_failure_free_completion_shape(self):
        h = geo_hierarchy()
        res = run_pbfd(h, Scenario(r_max=50, trace_origin=TraceOriginStrategy.fixed(1)))
        rules = res.trace.rules()
        assert rules.count("PB7") == h.max_level - 1
        assert rules[-1] == "PB8"
        assert "PB4b" in rules


class TestPdfdShapes:
    def test_failure_free_three_levels(self):
        h = perfect_tree(2, 3)
        res = run_pdfd(h, Scenario(r_max=2, trace_origin=TraceOriginStrategy.fixed(1)))
        assert res.outcome == "T"
        assert res.trace.rules() == [
            "PD1", "PD2", "PD2b", "PD2", "PD2b", "PD2", "PD4",
            "PD4a", "PD5", "PD6", "PD6", "PD7",
        ]

    def test_single_level_tree(self):
        h = uniform_hierarchy([1])
        res = run_pdfd(h, Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1)))
        assert res.outcome == "T"
        assert res.trace.rules() == ["PD1", "PD2", "PD4", "PD5", "PD7"]

    def test_always_failing_level_exhausts_budget(self):
        h = perfect_tree(2, 3)
        level2 = {n.id for n in h.level(2)}
        sc = Scenario(
            r_max=2,
            trace_origin=TraceOriginStrategy.fixed(2),
            validation_script={
                ("level", 2, k): level2 for k in range(1, 10)
            } | {
                ("refine", 2, k): level2 for k in range(1, 10)
            },
        )
        res = run_pdfd(h, sc)
        assert res.outcome == "S5"
        assert res.reason == "refinement_exhausted"
        assert res.attempts[2] == 2  # exactly two entries burned
        entries = [e for e in res.trace if e.rule in ("PD2a", "PD3c")]
        assert len(entries) == 2
        assert res.trace.events[-1].rule == "PD8"

    def test_undefined_scripted_origin_dead_ends(self):
        h = perfect_tree(2, 3)
        sc = Scenario(
            r_max=3,
            trace_origin=TraceOriginStrategy.scripted_map({}),
            validation_script={("level", 2, 1): {n.id for n in h.level(2)}},
        )
        res = run_pdfd(h, sc)
        assert res.outcome == "S5"
        assert res.reason == "no_refinement_path"

    def test_bottom_up_failure_refines_and_recovers(self):
        h = perfect_tree(2, 3)
        sc = Scenario(
            r_max=5,
            trace_origin=TraceOriginStrategy.fixed(2),
            validation_script={("bottom_up", 3, 1): {n.id for n in h.level(3)}},
        )
        res = run_pdfd(h, sc)
        assert res.outcome == "T"
        assert "PD4b" in res.trace.rules()
        # Episode resumes the bottom-up sweep, not the forward pass.
        i = res.trace.rules().index("PD3b")
        assert res.trace.events[i].to_state == "S3(3)"

    def test_top_down_failure_refines_and_recovers(self):
        h = perfect_tree(2, 3)
        sc = Scenario(
            r_max=5,
            trace_origin=TraceOriginStrategy.fixed(1),
            validation_script={("top_down", 2, 1): {n.id for n in h.level(2)}},
        )
        res = run_pdfd(h, sc)
        assert res.outcome == "T"
        assert "PD6a" in res.trace.rules()
        i = res.trace.rules().index("PD3b")
        assert res.trace.events[i].to_state == "S4(2)"


class TestPbfdShapes:
    def test_exhaustive_two_level_enumeration_terminates(self):
        """All validation outcomes on a small tree: T or S5, never stuck."""
        h = uniform_hierarchy([1, 2])
        base = Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1))
        results = [r for r, _folds in enumerate_runs("pbfd", h, base)]
        assert len(results) >= 3
        assert {r.outcome for r in results} <= {"T", "S5"}

    def test_retry_failure_path(self):
        h = perfect_tree(2, 3)
        level2 = {n.id for n in h.level(2)}
        sc = Scenario(
            r_max=5,
            trace_origin=TraceOriginStrategy.fixed(2),
            validation_script={
                ("pattern", 2, 1): level2,
                ("refine", 2, 1): level2,  # first rework fails -> retry
            },
        )
        res = run_pbfd(h, sc)
        assert res.outcome == "T"
        rules = res.trace.rules()
        assert "PB3a2" in rules
        assert res.attempts[2] == 2

    def test_completion_failure_resumes_sweep(self):
        h = perfect_tree(2, 3)
        sc = Scenario(
            r_max=5,
            trace_origin=TraceOriginStrategy.fixed(1),
            validation_script={("top_down", 2, 1): {n.id for n in h.level(2)}},
        )
        res = run_pbfd(h, sc)
        assert res.outcome == "T"
        rules = res.trace.rules()
        assert "PB7a" in rules
        i = rules.index("PB6")
        assert res.trace.events[i].to_state == "S4(2)"

    def test_exhaustion_via_pb9(self):
        h = perfect_tree(2, 2)
        level2 = {n.id for n in h.level(2)}
        sc = Scenario(
            r_max=1,
            trace_origin=TraceOriginStrategy.fixed(2),
            validation_script={("pattern", 2, 1): level2},
        )
        res = run_pbfd(h, sc)
        assert res.outcome == "S5"
        assert res.trace.events[-1].rule == "PB9"
        assert res.attempts[2] == 1

    def test_vertical_closure(self):
        """Every finalized non-leaf node's children appear in a later
        pattern or inside the completion sweep."""
        h = geo_hierarchy()
        res = run_pbfd(h, pbfd_mvp_scenario())
        levels = res.trace[0].payload["levels"]
        derived: set[int] = set()
        swept_levels: set[int] = set()
        for e in res.trace:
            if e.rule in ("PB4a", "PB4b"):
                derived.update(levels.get(str(e.payload["level"] + 1), ()))
            if e.rule in ("PB7", "PB8"):
                swept_levels.add(e.payload["level"])
        for n in h.nodes.values():
            children = h.children(n.id)
            if res.statuses[n.id] == 2 and children:
                for c in children:
                    assert c.id in derived or c.level in swept_levels

    def test_order_independence_of_committed_state(self):
        """Reversed within-pattern order: same committed statuses and rule
        multiset (interleaving may differ)."""
        h = perfect_tree(3, 3)
        sc = Scenario(r_max=2, trace_origin=TraceOriginStrategy.fixed(1))
        a = run_pbfd(h, sc)
        b = run_pbfd(h, sc)  # statuses are set-valued; rerun and compare
        assert a.statuses == b.statuses
        assert sorted(a.trace.rules()) == sorted(b.trace.rules())


class TestDeterminism:
    @pytest.mark.parametrize("runner", [run_pdfd, run_pbfd])
    def test_identical_inputs_identical_traces(self, runner):
        h = perfect_tree(2, 4)
        sc = Scenario(
            r_max=3,
            trace_origin=TraceOriginStrategy.fixed(1),
            seed=5,
            random_failure_rate=0.2,
        )
        a = runner(h, sc)
        b = runner(h, sc)
        assert [e.to_record() for e in a.trace] == [e.to_record() for e in b.trace]
        assert check_well_formed(a.trace).ok

    @pytest.mark.parametrize("runner,hierarchy,scenario", [
        (run_pdfd, visited_places_hierarchy, pdfd_mvp_scenario),
        (run_pbfd, geo_hierarchy, pbfd_mvp_scenario),
    ])
    def test_a_run_leaves_its_scenario_unchanged(self, runner, hierarchy, scenario):
        h, sc = hierarchy(), scenario()
        before = copy.deepcopy(sc)
        a = runner(h, sc)
        assert sc == before
        b = runner(h, sc)
        assert [e.to_record() for e in a.trace] == [e.to_record() for e in b.trace]


class TestFork:
    @pytest.mark.parametrize("methodology", ["pdfd", "pbfd"])
    def test_a_fork_has_every_field_and_owns_what_a_step_changes(self, methodology):
        sc = Scenario(r_max=2, trace_origin=TraceOriginStrategy.fixed(1), seed=3,
                      random_failure_rate=0.3)
        eng = start_run(methodology, perfect_tree(2, 3), sc)
        for _ in range(5):
            eng.step()
        fork = eng.fork()
        assert vars(fork).keys() == vars(eng).keys()
        for field in ("queries", "statuses", "attempts"):
            assert getattr(fork, field) == getattr(eng, field), field
            assert getattr(fork, field) is not getattr(eng, field), field
        assert fork._changed is not eng._changed
        assert fork.trace.events == eng.trace.events
        assert fork.trace.events is not eng.trace.events

    @pytest.mark.parametrize("methodology", ["pdfd", "pbfd"])
    def test_stepping_a_fork_leaves_its_origin_unchanged(self, methodology):
        h = perfect_tree(2, 3)
        sc = Scenario(r_max=2, trace_origin=TraceOriginStrategy.fixed(1), seed=3,
                      random_failure_rate=0.3)
        eng = start_run(methodology, h, sc)
        eng.step()
        eng.fork().finish()
        alone = {"pdfd": run_pdfd, "pbfd": run_pbfd}[methodology](h, sc)
        assert eng.finish().trace.to_jsonl() == alone.trace.to_jsonl()
