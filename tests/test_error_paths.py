"""Terminal error paths of the hybrid machines: every dead-end rule fires
with a conformant, monitor-clean trace."""

import pytest

from treeflow.csp import check_csp_conformance
from treeflow.fixtures import perfect_tree
from treeflow.hybrid_machines import run_pbfd, run_pdfd
from treeflow.scenario import Scenario, TraceOriginStrategy
from treeflow.verify import run_all_checks


def all_monitors_pass(trace):
    verdicts = run_all_checks(trace) + [check_csp_conformance(trace)]
    failed = [v.line() for v in verdicts if not v.ok]
    assert not failed, failed
    return True


@pytest.fixture()
def tree():
    return perfect_tree(2, 3)


def no_origin_for(level):
    # A scripted map with no entry for the failing level dead-ends the run.
    return TraceOriginStrategy.scripted_map({})


class TestDepthLedDeadEnds:
    def test_forward_validation_without_origin(self, tree):
        sc = Scenario(
            r_max=3,
            trace_origin=no_origin_for(2),
            validation_script={("level", 2, 1): {n.id for n in tree.level(2)}},
        )
        res = run_pdfd(tree, sc)
        assert res.outcome == "S5" and res.reason == "no_refinement_path"
        assert res.trace.events[-1].rule == "PD8"
        assert res.trace.events[-1].from_state == "S2(2)"
        assert all_monitors_pass(res.trace)

    def test_bottom_up_failure_without_origin(self, tree):
        sc = Scenario(
            r_max=3,
            trace_origin=no_origin_for(3),
            validation_script={("bottom_up", 3, 1): {n.id for n in tree.level(3)}},
        )
        res = run_pdfd(tree, sc)
        assert res.outcome == "S5" and res.reason == "no_refinement_path"
        assert res.trace.events[-1].rule == "PD8"
        assert res.trace.events[-1].from_state == "S3(3)"
        assert all_monitors_pass(res.trace)

    def test_top_down_failure_without_origin_fires_dead_end_rule(self, tree):
        sc = Scenario(
            r_max=3,
            trace_origin=no_origin_for(1),
            validation_script={("top_down", 1, 1): {tree.root_id}},
        )
        res = run_pdfd(tree, sc)
        assert res.outcome == "S5" and res.reason == "no_refinement_path"
        assert res.trace.events[-1].rule == "PD6b"
        assert res.trace.events[-1].from_state == "S4(1)"
        assert all_monitors_pass(res.trace)

    def test_refine_retry_exhaustion_terminates_from_refinement_state(self, tree):
        level2 = {n.id for n in tree.level(2)}
        sc = Scenario(
            r_max=3,
            trace_origin=TraceOriginStrategy.fixed(2),
            validation_script={("level", 2, 1): level2}
            | {("refine", 2, k): level2 for k in range(1, 10)},
        )
        res = run_pdfd(tree, sc)
        assert res.outcome == "S5" and res.reason == "refinement_exhausted"
        assert res.trace.events[-1].rule == "PD8"
        assert res.trace.events[-1].from_state.startswith("S1R")
        assert res.attempts[2] == 3
        assert all_monitors_pass(res.trace)


class TestBreadthLedDeadEnds:
    def test_pattern_validation_without_origin(self, tree):
        sc = Scenario(
            r_max=3,
            trace_origin=no_origin_for(2),
            validation_script={("pattern", 2, 1): {n.id for n in tree.level(2)}},
        )
        res = run_pbfd(tree, sc)
        assert res.outcome == "S5" and res.reason == "no_refinement_path"
        assert res.trace.events[-1].rule == "PB3c"
        assert all_monitors_pass(res.trace)

    def test_completion_failure_without_origin(self, tree):
        sc = Scenario(
            r_max=3,
            trace_origin=no_origin_for(2),
            validation_script={("top_down", 2, 1): {n.id for n in tree.level(2)}},
        )
        res = run_pbfd(tree, sc)
        assert res.outcome == "S5" and res.reason == "no_refinement_path"
        assert res.trace.events[-1].rule == "PB7b"
        assert all_monitors_pass(res.trace)

    def test_completion_retry_exhaustion(self, tree):
        level2 = {n.id for n in tree.level(2)}
        sc = Scenario(
            r_max=1,
            trace_origin=TraceOriginStrategy.fixed(1),
            validation_script={("top_down", 2, 1): level2},
        )
        res = run_pbfd(tree, sc)
        assert res.outcome == "S5" and res.reason == "refinement_exhausted"
        assert res.trace.events[-1].rule == "PB9"
        assert all_monitors_pass(res.trace)


class TestDependencyMinFullRun:
    def test_implicated_ancestor_directs_the_backtrack(self):
        h = perfect_tree(2, 4)
        failing = {n.id for n in h.level(3)}
        implicated = {h.root_id}  # level 1 flagged as the root cause
        sc = Scenario(
            r_max=3,
            trace_origin=TraceOriginStrategy.dependency_min(),
            implicated_nodes=implicated,
            validation_script={("level", 3, 1): failing},
        )
        res = run_pdfd(h, sc)
        assert res.outcome == "T"
        entry = next(e for e in res.trace if e.rule == "PD2a")
        assert entry.to_state == "S1R(1)"
        assert res.attempts == {1: 1, 2: 1, 3: 1, 4: 0}
        assert all_monitors_pass(res.trace)

    def test_unflagged_failure_refines_in_place(self):
        h = perfect_tree(2, 3)
        sc = Scenario(
            r_max=3,
            trace_origin=TraceOriginStrategy.dependency_min(),
            validation_script={("level", 2, 1): {n.id for n in h.level(2)}},
        )
        res = run_pdfd(h, sc)
        assert res.outcome == "T"
        entry = next(e for e in res.trace if e.rule == "PD2a")
        assert entry.to_state == "S1R(2)"
        assert all_monitors_pass(res.trace)
