"""Monitors: measure arithmetic, descent, bounds, finalization invariance,
deadlock freeness, and injected-fault detection."""

import random

import pytest

from test_trace_golden import _scripted
from treeflow.fixtures import (
    geo_hierarchy,
    pbfd_mvp_scenario,
    pdfd_mvp_scenario,
    perfect_tree,
    uniform_hierarchy,
    visited_places_hierarchy,
)
from treeflow import hybrid_machines
from treeflow.hybrid_machines import run_pbfd, run_pdfd
from treeflow.measure import MeasureError, TraceContext, measure, trace_length_cap
from treeflow.scenario import Scenario, TraceOriginStrategy
from treeflow.trace import Trace, TraceEvent
from treeflow.verify import (
    PBFD_RULES,
    PDFD_RULES,
    RULE_TABLES,
    RuleSpec,
    check_bounded_refinement,
    check_deadlock_freeness,
    check_finalization,
    check_measure_descent,
    check_rule_legality,
    check_well_formed,
    _MAX_FORK_DEPTH,
    DescentFold,
    Verdict,
    WellFormedFold,
    enumerate_runs,
)


def seven_node_ctx():
    h = perfect_tree(2, 3)  # 1 + 2 + 4 nodes
    return h, TraceContext(
        methodology="pdfd",
        levels={k: tuple(n.id for n in h.level(k)) for k in h.levels()},
        max_level=3,
        r_max=3,
        k_thresholds={},
    )


def measure_at(ctx, family, index, statuses=None, spent=0):
    """M at the label ``family(index)``, with the unfinalized count taken
    from ``statuses`` (all unprocessed by default) and ``spent`` attempts."""
    statuses = statuses or {n: 0 for ids in ctx.levels.values() for n in ids}
    unfinalized = sum(1 for v in statuses.values() if v != 2)
    return measure(ctx, family, index, None, unfinalized, spent)


def measures_around(trace, rule):
    """The descent monitor's M before and after the first ``rule`` event."""
    fold = DescentFold(trace.methodology)
    for ev in trace:
        pre = fold.measure
        fold.feed([ev])
        if ev.rule == rule:
            return pre, fold.measure
    raise AssertionError(f"no {rule} event")


class TestMeasureOf:
    def test_initial_state_of_seven_node_tree(self):
        _h, ctx = seven_node_ctx()
        m = measure_at(ctx, "S1", 1)
        assert m == (7, 9, 3, 1)  # everything unfinalized, 3x3 budget, |level 1|

    def test_terminal_has_no_unfinalized_nodes(self):
        h, ctx = seven_node_ctx()
        done = {n.id: 2 for n in h.nodes.values()}
        m = measure_at(ctx, "T", None, statuses=done)
        assert m[0] == 0

    def test_refinement_entry_decreases_k2_by_one(self):
        """The monitor's M around one scripted backtrack."""
        h = perfect_tree(2, 3)
        sc = Scenario(
            r_max=3,
            trace_origin=TraceOriginStrategy.fixed(2),
            validation_script={("level", 2, 1): {n.id for n in h.level(2)}},
        )
        pre, post = measures_around(run_pdfd(h, sc).trace, "PD2a")
        assert pre[1] - post[1] == 1

    def test_budget_counts_every_level(self):
        _h, ctx = seven_node_ctx()
        assert measure_at(ctx, "S1", 1, spent=1)[1] == 8      # 3x3 budget minus one spent

    def test_negative_component_is_a_typed_error(self):
        _h, ctx = seven_node_ctx()
        with pytest.raises(MeasureError, match="must be non-negative"):
            measure_at(ctx, "S1", 1, spent=10)  # k2 = 9 - 10

    def test_the_episode_origin_bounds_the_refinement_range(self):
        """In an R phase k4 counts the steps left up to the origin level."""
        _h, ctx = seven_node_ctx()
        assert [measure(ctx, family, 1, 3, 7, 0)[3]
                for family in ("S1R", "S2R", "S3R")] == [4, 3, 3]


class TestDescent:
    def test_pdfd_mvp_full_descent(self):
        res = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
        assert check_measure_descent(res.trace).ok

    def test_pd2b_component_pattern(self):
        res = run_pdfd(
            perfect_tree(2, 3),
            Scenario(r_max=2, trace_origin=TraceOriginStrategy.fixed(1)),
        )
        pre, post = measures_around(res.trace, "PD2b")
        assert post[0] < pre[0]      # finalized nodes drop out
        assert post[1] == pre[1]     # no budget spent
        assert post < pre or post[0] < pre[0]  # lexicographic descent via k1

    def test_pb3_component_pattern(self):
        h = perfect_tree(2, 3)
        sc = Scenario(
            r_max=3,
            trace_origin=TraceOriginStrategy.fixed(2),
            validation_script={("pattern", 2, 1): {n.id for n in h.level(2)}},
        )
        pre, post = measures_around(run_pbfd(h, sc).trace, "PB3")
        assert post[0] == pre[0]   # no finalization change
        assert post[1] < pre[1]    # one attempt burned
        assert post[2] > pre[2]    # phase ordinal regresses
        assert post < pre          # still descends lexicographically

    def test_rule_classification_matches_tables(self):
        pdfd = {r: spec.kind for r, spec in RULE_TABLES["pdfd"].items()}
        assert pdfd["PD1"] == "initial"
        for r in ("PD6b", "PD7", "PD8"):
            assert pdfd[r] == "terminal"
        for r in ("PD2", "PD2a", "PD2b", "PD3", "PD3a", "PD3b", "PD3c",
                  "PD4", "PD4a", "PD4b", "PD5", "PD6", "PD6a"):
            assert pdfd[r] == "step"
        pbfd = {r: spec.kind for r, spec in RULE_TABLES["pbfd"].items()}
        assert pbfd["PB1"] == "initial"
        for r in ("PB3a3", "PB3c", "PB7b", "PB8", "PB9"):
            assert pbfd[r] == "terminal"
        for r in ("PB2", "PB2a", "PB3", "PB3a", "PB3a1", "PB3a2", "PB3b",
                  "PB4", "PB4a", "PB4b", "PB5", "PB6", "PB7", "PB7a"):
            assert pbfd[r] == "step"

    def test_manipulated_measure_flagged(self):
        """A PD2 that finalizes the level it marks in progress moves k1,
        which the rule must leave equal."""
        res = run_pdfd(
            perfect_tree(2, 3),
            Scenario(r_max=2, trace_origin=TraceOriginStrategy.fixed(1)),
        )
        events = list(res.trace)
        victim = events[3]
        assert victim.rule == "PD2"
        changes = {n: 2 for n in victim.payload["status_changes"]}
        events[3] = victim._replace(payload=dict(victim.payload, status_changes=changes))
        verdict = check_measure_descent(Trace("pdfd", events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, "PD2 component k1 broke pattern =: 6 -> 4", victim.seq)

    def test_a_first_step_event_has_no_measure_before_it(self):
        events = list(run_pdfd(perfect_tree(2, 3), Scenario(r_max=1)).trace)
        events[0] = events[0]._replace(rule="PD2", from_state="S1(1)")
        verdict = check_measure_descent(Trace("pdfd", events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, "PD2 has no measure before it", 1)


class TestBoundedRefinement:
    def test_mvp_counters_under_cap(self):
        res = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
        v = check_bounded_refinement(res.trace)
        assert v.ok

    def test_failure_free_all_zero(self):
        res = run_pdfd(perfect_tree(2, 3), Scenario(r_max=2, trace_origin=TraceOriginStrategy.fixed(1)))
        assert check_bounded_refinement(res.trace).ok
        assert all(c == 0 for c in res.attempts.values())

    def test_adversarial_hits_cap_exactly(self):
        h = perfect_tree(2, 2)
        fails = {n.id for n in h.level(2)}
        sc = Scenario(
            r_max=2,
            trace_origin=TraceOriginStrategy.fixed(2),
            validation_script={("level", 2, k): fails for k in range(1, 9)}
            | {("refine", 2, k): fails for k in range(1, 9)},
        )
        res = run_pdfd(h, sc)
        assert res.outcome == "S5"
        assert res.attempts[2] == 2
        assert check_bounded_refinement(res.trace).ok

    def test_total_increment_cap(self):
        res = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
        ctx = TraceContext.from_payload("pdfd", res.trace.events[0].payload)
        total = sum(res.attempts.values())
        assert total <= ctx.max_level * ctx.r_max


class TestFinalization:
    def test_successful_run_passes(self):
        res = run_pdfd(perfect_tree(2, 3), Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1)))
        assert check_finalization(res.trace).ok

    def test_failed_refinement_attempt_invisible_in_committed_snapshots(self):
        h = perfect_tree(2, 3)
        sc = Scenario(
            r_max=5,
            trace_origin=TraceOriginStrategy.fixed(1),
            validation_script={
                ("level", 3, 1): {n.id for n in h.level(3)},
                ("refine", 1, 1): {h.root_id},  # rework of a finalized level fails once
            },
        )
        res = run_pdfd(h, sc)
        assert res.outcome == "T"
        assert "PD3c" in res.trace.rules()
        assert check_finalization(res.trace).ok

    @pytest.mark.parametrize("run,h,sc", [
        (run_pdfd, visited_places_hierarchy, pdfd_mvp_scenario),
        (run_pbfd, geo_hierarchy, pbfd_mvp_scenario),
    ])
    def test_pass_detail_counts_each_node_finalized_once(self, run, h, sc):
        """Kills a count of other status changes: the detail names every
        node of the tree once, and the runs also mark nodes in progress."""
        res = run(h(), sc())
        assert check_finalization(res.trace).detail == f"{len(res.statuses)} nodes finalized"

    def test_injected_demotion_is_flagged(self):
        res = run_pdfd(perfect_tree(2, 3), Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1)))
        events = list(res.trace)
        victim = events[-1]
        demoted = next(iter(events[0].payload["statuses"]))  # finalized by the end
        events[-1] = TraceEvent(
            seq=victim.seq, rule=victim.rule, from_state=victim.from_state,
            to_state=victim.to_state,
            payload=dict(victim.payload, status_changes={demoted: 0}),
        )
        verdict = check_finalization(Trace("pdfd", events))
        assert not verdict.ok
        assert verdict.first_violation_seq == victim.seq


class TestLegality:
    def test_mvp_traces_legal(self):
        res = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
        assert check_rule_legality(res.trace).ok

    def test_forged_advance_below_threshold_flagged(self):
        res = run_pdfd(perfect_tree(2, 3), Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1)))
        events = list(res.trace)
        idx = next(i for i, e in enumerate(events) if e.rule == "PD2b")
        ev = events[idx]
        # The level's nodes are finalized by this very event; forge them back.
        changes = {k: 0 for k in ev.payload["status_changes"]}
        events[idx] = TraceEvent(
            seq=ev.seq, rule=ev.rule, from_state=ev.from_state, to_state=ev.to_state,
            payload=dict(ev.payload, status_changes=changes),
        )
        verdict = check_rule_legality(Trace("pdfd", events))
        assert not verdict.ok

    def test_pattern_derivation_reads_the_next_level_from_the_level_map(self):
        """PB4a needs a non-empty next level in the first event's ``levels``;
        a ``next_pattern`` field, which traces once carried, is not read."""
        res = run_pbfd(perfect_tree(2, 3), Scenario(r_max=1))
        events = list(res.trace)
        idx = next(i for i, e in enumerate(events) if e.rule == "PB4a")
        events[idx] = events[idx]._replace(payload=dict(events[idx].payload, next_pattern=[]))
        assert check_rule_legality(Trace("pbfd", events)).ok
        levels = dict(events[0].payload["levels"])
        del levels[str(events[idx].payload["level"] + 1)]
        events[0] = events[0]._replace(payload=dict(events[0].payload, levels=levels))
        verdict = check_rule_legality(Trace("pbfd", events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, "pattern derivation with no children", events[idx].seq)

    def test_target_label_must_name_its_index(self):
        events = list(run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario()).trace)
        idx = next(i for i, e in enumerate(events) if e.to_state.startswith("S1R("))
        events[idx] = events[idx]._replace(to_state="S1R")
        events[idx + 1] = events[idx + 1]._replace(from_state="S1R")
        verdict = check_rule_legality(Trace("pdfd", events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, "PD2a target S1R names no level", events[idx].seq)

    @pytest.mark.parametrize("run,r_max,expected", [
        (run_pdfd, 1, (False, "PD2a exceeded the attempt cap", 14)),
        (run_pbfd, 0, (False, "PB3 exceeded the attempt cap", 9)),
    ], ids=["pdfd", "pbfd"])
    def test_forged_lower_budget_exceeds_the_attempt_cap(self, run, r_max, expected):
        """The bundled replays with the first event's ``r_max`` forged below
        the attempts they spend."""
        h = visited_places_hierarchy() if run is run_pdfd else geo_hierarchy()
        sc = pdfd_mvp_scenario() if run is run_pdfd else pbfd_mvp_scenario()
        trace = run(h, sc).trace
        events = list(trace)
        events[0] = events[0]._replace(payload=dict(events[0].payload, r_max=r_max))
        verdict = check_rule_legality(Trace(trace.methodology, events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == expected

    @staticmethod
    def _ending_in(run, h, rule, new_rule, to_state):
        """A genuine trace cut after its last ``rule`` event, which is
        forged to fire ``new_rule`` into ``to_state``."""
        trace = run(h, Scenario(r_max=1)).trace
        events = list(trace)
        idx = max(i for i, e in enumerate(events) if e.rule == rule)
        events[idx] = events[idx]._replace(rule=new_rule, to_state=to_state)
        return Trace(trace.methodology, events[:idx + 1])

    def test_bottom_up_entry_needs_an_empty_next_level(self):
        """Kills PD4's ``i != L`` made ``==``: level 1 of two is not the last."""
        trace = self._ending_in(run_pdfd, uniform_hierarchy([1, 2]), "PD2b", "PD4", "S3(1)")
        verdict = check_rule_legality(trace)
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, "bottom-up entry with a non-empty next level", trace[-1].seq)

    @pytest.mark.parametrize("run,rule,step", [(run_pdfd, "PD7", "PD6"), (run_pbfd, "PB8", "PB7")])
    def test_a_sweep_step_from_the_last_level_is_beyond_it(self, run, rule, step):
        """Kills the sweep step's ``level >= L`` made ``>``: the boundary
        level L itself is refused."""
        trace = self._ending_in(run, uniform_hierarchy([1, 2, 2]), rule, step, "S4(4)")
        verdict = check_rule_legality(trace)
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"{step} beyond the last level", trace[-1].seq)

    def test_no_pattern_is_derived_from_the_last_level(self):
        """Kills PB4a's ``i >= L`` made ``>``, which reports the next check's
        message instead."""
        trace = self._ending_in(run_pbfd, uniform_hierarchy([1, 2, 2]), "PB4b", "PB4a", "S1(4)")
        verdict = check_rule_legality(trace)
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, "pattern derivation at the last level", trace[-1].seq)

    def test_failing_nodes_belong_to_the_validated_level(self):
        events = list(run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario()).trace)
        idx = next(i for i, e in enumerate(events) if e.rule == "PD2a")
        p = events[idx].payload
        outside = TraceContext.from_payload("pdfd", events[0].payload).level_ids(p["level"] + 1)[0]
        events[idx] = events[idx]._replace(payload=dict(p, failing=p["failing"] + [outside]))
        verdict = check_rule_legality(Trace("pdfd", events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"PD2a failing nodes outside level {p['level']}", events[idx].seq)

    @pytest.mark.parametrize("rule", ["PD2b", "PD4", "PD4a", "PD5", "PD6", "PD7", "PD3a", "PD3b"])
    def test_a_passed_validation_has_no_failing_nodes(self, rule):
        events = list(run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario()).trace)
        idx = next(i for i, e in enumerate(events) if e.rule == rule)
        p = events[idx].payload
        ctx = TraceContext.from_payload("pdfd", events[0].payload)
        failing = list(ctx.level_ids(p["level"])[:1])
        events[idx] = events[idx]._replace(payload=dict(p, failing=failing))
        verdict = check_rule_legality(Trace("pdfd", events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"{rule} with failing nodes", events[idx].seq)

    @pytest.mark.parametrize("key", ["top-down:pdfd", "refine:pbfd", "pattern:pbfd"])
    def test_a_dead_end_names_its_failing_nodes(self, key):
        """PD6b, PB7b and PB3c end a run on a failed validation with no
        origin: without failing nodes nothing failed."""
        trace = _scripted(key)
        last = trace.events[-1]
        events = trace.events[:-1] + [last._replace(payload=dict(last.payload, failing=[]))]
        verdict = check_rule_legality(Trace(trace.methodology, events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"{last.rule} without failing nodes", last.seq)

    @pytest.mark.parametrize("run,rule", [(run_pdfd, "PD3a"), (run_pdfd, "PD3b"),
                                          (run_pbfd, "PB3a1"), (run_pbfd, "PB5"),
                                          (run_pbfd, "PB6")])
    def test_range_end_is_the_episode_origin(self, run, rule):
        """The origin is folded from the labels: the level whose failure
        entered the episode."""
        h = visited_places_hierarchy() if run is run_pdfd else geo_hierarchy()
        sc = pdfd_mvp_scenario() if run is run_pdfd else pbfd_mvp_scenario()
        trace = run(h, sc).trace
        events = list(trace)
        idx = next(i for i, e in enumerate(events) if e.rule == rule)
        p = events[idx].payload
        events[idx] = events[idx]._replace(payload=dict(p, range_end=p["range_end"] + 1))
        verdict = check_rule_legality(Trace(trace.methodology, events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"{rule} range_end {p['range_end'] + 1} is not the episode origin",
            events[idx].seq)

    @pytest.mark.parametrize("run,tag,rule", [
        (run_pdfd, "level", "PD2a"), (run_pdfd, "refine", "PD3c"),
        (run_pdfd, "bottom_up", "PD4b"), (run_pdfd, "top_down", "PD6a"),
        (run_pbfd, "pattern", "PB3"), (run_pbfd, "refine", "PB3a2"),
        (run_pbfd, "top_down", "PB7a"),
    ])
    def test_a_backtrack_origin_above_its_level_is_refused(self, run, tag, rule):
        """A backtrack from each source family (S2, S2R, S3, S4) whose S1R
        target is forged one level above the failed one; the next event's
        source is forged with it, so the chain holds."""
        h = perfect_tree(2, 3)
        fails = {n.id for n in h.level(2)}
        script = {(tag, 2, 1): fails}
        if tag == "refine":  # level 2 fails, then its rework of level 1
            script = {("level", 2, 1): fails, ("pattern", 2, 1): fails,
                      ("refine", 1, 1): {n.id for n in h.level(1)}}
        sc = Scenario(r_max=3, trace_origin=TraceOriginStrategy.scripted_map({2: 1}),
                      validation_script=script)
        trace = run(h, sc).trace
        events = list(trace)
        idx = next(i for i, e in enumerate(events) if e.rule == rule)
        level = events[idx].payload["level"]
        forged = f"S1R({level + 1})"
        events[idx] = events[idx]._replace(to_state=forged)
        events[idx + 1] = events[idx + 1]._replace(from_state=forged)
        verdict = check_rule_legality(Trace(trace.methodology, events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"{rule} origin {level + 1} outside [1, {level}]", events[idx].seq)

    @pytest.mark.parametrize("key,rule", [("top-down:pdfd", "PD6b"), ("refine:pbfd", "PB7b")])
    def test_a_dead_end_is_no_backtrack(self, key, rule):
        """A dead end fails a validation like a backtrack, but its S5 target
        names no origin, so the origin check does not read it."""
        trace = _scripted(key)
        assert trace.events[-1].rule == rule
        verdict = check_rule_legality(trace)
        assert (verdict.ok, verdict.detail) == (True, "")

    @pytest.mark.parametrize("level", [0, 99, "x"])
    @pytest.mark.parametrize("run,rule", [(run_pdfd, "PD2"), (run_pbfd, "PB2")])
    def test_a_step_from_s1_reads_its_level_from_its_target(self, run, rule, level):
        """PD2 and PB2 fire from S1 and carry no level: a forged payload
        ``level`` is not read."""
        trace = run(perfect_tree(2, 3), Scenario(r_max=1)).trace
        events = [ev._replace(payload=dict(ev.payload, level=level)) if ev.rule == rule else ev
                  for ev in trace]
        assert sum(ev.rule == rule for ev in events) == 3
        verdict = check_rule_legality(Trace(trace.methodology, events))
        assert (verdict.ok, verdict.detail) == (True, "")

    @pytest.mark.parametrize("run,rule", [(run_pdfd, "PD8"), (run_pbfd, "PB9")])
    def test_forged_higher_budget_leaves_exhaustion_with_budget(self, run, rule):
        """A run that exhausts its budget of one at level 2, with the first
        event's ``r_max`` forged to 2."""
        h = perfect_tree(2, 3)
        fails = {n.id for n in h.level(2)}
        sc = Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(2),
                      validation_script={("level", 2, 1): fails, ("pattern", 2, 1): fails})
        res = run(h, sc)
        assert (res.outcome, res.reason, res.trace.events[-1].rule) == (
            "S5", "refinement_exhausted", rule)
        events = list(res.trace)
        events[0] = events[0]._replace(payload=dict(events[0].payload, r_max=2))
        verdict = check_rule_legality(Trace(res.trace.methodology, events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"{rule} with remaining budget at level 2", events[-1].seq)

    @pytest.mark.parametrize("run,rule", [(run_pdfd, "PD7"), (run_pbfd, "PB8")])
    def test_a_successful_end_needs_every_node_finalized(self, run, rule):
        """The last event forged to move a finalized node back in progress."""
        trace = run(perfect_tree(2, 3), Scenario(r_max=1)).trace
        events = list(trace)
        last = events[-1]
        assert last.rule == rule
        node = next(iter(events[0].payload["statuses"]))
        events[-1] = last._replace(payload=dict(last.payload, status_changes={node: 1}))
        verdict = check_rule_legality(Trace(trace.methodology, events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"{rule} with unfinalized nodes", last.seq)

    @staticmethod
    def _one_change_dropped(run, rule):
        """A genuine trace whose last ``rule`` event, which finalizes its
        level, leaves one node of it out of its status changes."""
        trace = run(perfect_tree(2, 3), Scenario(r_max=1)).trace
        events = list(trace)
        idx = max(i for i, e in enumerate(events) if e.rule == rule)
        changes = dict(events[idx].payload["status_changes"])
        changes.popitem()
        events[idx] = events[idx]._replace(
            payload=dict(events[idx].payload, status_changes=changes))
        return Trace(trace.methodology, events), events[idx]

    def test_pattern_derivation_needs_its_level_finalized(self):
        """PB4a's effect finalizes its level, so a node of it left in
        progress breaks the effect."""
        trace, ev = self._one_change_dropped(run_pbfd, "PB4a")
        verdict = check_rule_legality(trace)
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, "PB4a left node 2 of level 2 at status 1", ev.seq)

    def test_an_advance_needs_k_nodes_finalized(self):
        """Level 2 of the seven-node tree has two nodes, and K defaults to
        the level's size."""
        trace, ev = self._one_change_dropped(run_pdfd, "PD2b")
        verdict = check_rule_legality(trace)
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, "advance from level 2 with 1 finalized < K=2", ev.seq)

    @staticmethod
    def _mvp(run):
        h = visited_places_hierarchy() if run is run_pdfd else geo_hierarchy()
        sc = pdfd_mvp_scenario() if run is run_pdfd else pbfd_mvp_scenario()
        return run(h, sc).trace

    @pytest.mark.parametrize("run,rule", [(run_pdfd, "PD3a"), (run_pbfd, "PB5")])
    def test_a_range_step_stays_inside_the_episode_range(self, run, rule):
        """The step's S1R target forged one level past the range end, the
        next event's source with it."""
        trace = self._mvp(run)
        events = list(trace)
        idx = next(i for i, e in enumerate(events) if e.rule == rule)
        past = f"S1R({events[idx].payload['range_end'] + 1})"
        events[idx] = events[idx]._replace(to_state=past)
        events[idx + 1] = events[idx + 1]._replace(from_state=past)
        verdict = check_rule_legality(Trace(trace.methodology, events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"{rule} progressed past the episode range", events[idx].seq)

    @pytest.mark.parametrize("run,rule", [(run_pdfd, "PD3b"), (run_pbfd, "PB6")])
    def test_an_episode_closes_at_its_range_end(self, run, rule):
        """The closing event's ``level`` forged one below its range end."""
        trace = self._mvp(run)
        events = list(trace)
        idx = next(i for i, e in enumerate(events) if e.rule == rule)
        p = events[idx].payload
        events[idx] = events[idx]._replace(payload=dict(p, level=p["range_end"] - 1))
        verdict = check_rule_legality(Trace(trace.methodology, events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"{rule} before the episode range was complete", events[idx].seq)

    @pytest.mark.parametrize("run,rule", [(run_pdfd, "PD3a"), (run_pbfd, "PB6")])
    def test_a_ranged_rule_carries_its_range_end(self, run, rule):
        trace = self._mvp(run)
        events = list(trace)
        idx = next(i for i, e in enumerate(events) if e.rule == rule)
        events[idx] = events[idx]._replace(payload={
            k: v for k, v in events[idx].payload.items() if k != "range_end"})
        verdict = check_rule_legality(Trace(trace.methodology, events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"{rule} payload unreadable: 'range_end'", events[idx].seq)

    def test_broken_chain_flagged(self):
        res = run_pdfd(perfect_tree(2, 3), Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1)))
        events = list(res.trace)
        ev = events[2]
        events[2] = TraceEvent(
            seq=ev.seq, rule=ev.rule, from_state="S4(9)", to_state=ev.to_state,
            payload=ev.payload,
        )
        assert not check_well_formed(Trace("pdfd", events)).ok

    def test_chain_break_wins_over_an_earlier_unknown_rule(self):
        res = run_pdfd(perfect_tree(2, 3), Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1)))
        events = list(res.trace)
        events[1] = events[1]._replace(rule="PDX")
        events[4] = events[4]._replace(from_state="S4(9)")
        verdict = check_well_formed(Trace("pdfd", events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, "state chain broken", events[4].seq)
        del events[4:]
        verdict = check_well_formed(Trace("pdfd", events))
        assert (verdict.detail, verdict.first_violation_seq) == ("unknown rule PDX", events[1].seq)


class TestRowEffects:
    """Rule legality holds each event's status changes to its rule's effect
    and each ``attempt`` to the queries at its source and level so far."""

    @staticmethod
    def _forged(run, rule, forge, nth=0):
        """The seven-node run with the ``nth`` ``rule`` event's payload
        replaced by ``forge(payload)``; that event and the verdict."""
        trace = run(perfect_tree(2, 3), Scenario(r_max=1)).trace
        events = list(trace)
        idx = [i for i, e in enumerate(events) if e.rule == rule][nth]
        events[idx] = events[idx]._replace(payload=forge(dict(events[idx].payload)))
        verdict = check_rule_legality(Trace(trace.methodology, events))
        return events[idx], (verdict.ok, verdict.detail, verdict.first_violation_seq)

    @pytest.mark.parametrize("run,rule", [(run_pdfd, "PD1"), (run_pbfd, "PB1")])
    def test_the_first_map_is_all_unprocessed(self, run, rule):
        ev, verdict = self._forged(run, rule, lambda p: dict(
            p, statuses=dict(p["statuses"], **{"2": 1})))
        assert verdict == (False, f"{rule} first map has node 2 at status 1", ev.seq)

    @pytest.mark.parametrize("run,rule", [(run_pdfd, "PD2"), (run_pbfd, "PB2")])
    def test_a_mark_reaches_every_node_of_its_level(self, run, rule):
        """Level 3 of the seven-node tree is nodes 3 to 6; node 6 is left out."""
        ev, verdict = self._forged(run, rule, lambda p: dict(
            p, status_changes={"3": 1, "4": 1, "5": 1}), nth=2)
        assert verdict == (False, f"{rule} left node 6 of level 3 at status 0", ev.seq)

    def test_a_mark_moves_a_node_to_in_progress_only(self):
        ev, verdict = self._forged(run_pdfd, "PD2", lambda p: dict(
            p, status_changes=dict(p["status_changes"], **{"1": 2})), nth=1)
        assert verdict == (False, "PD2 moved node 1 from 0 to 2", ev.seq)

    def test_an_effect_changes_no_other_level(self):
        """PB4b finalizes level 3, where node 0, of level 1, is already
        finalized; PB2 marks level 2, not level 3's node 3."""
        ev, verdict = self._forged(run_pbfd, "PB4b", lambda p: dict(
            p, status_changes=dict(p["status_changes"], **{"0": 1})))
        assert verdict == (False, "PB4b moved node 0 from 2 to 1", ev.seq)
        ev, verdict = self._forged(run_pbfd, "PB2", lambda p: dict(
            p, status_changes=dict(p["status_changes"], **{"3": 1})), nth=1)
        assert verdict == (False, "PB2 moved node 3 outside level 2", ev.seq)

    def test_a_mark_moves_no_node_the_first_map_lacks(self):
        """Node 6 is left out of the first map, and level 3's mark restates
        the whole map with it in progress."""
        trace = run_pdfd(perfect_tree(2, 3), Scenario(r_max=1)).trace
        events = list(trace)
        first = events[0].payload
        events[0] = events[0]._replace(payload=dict(
            first, statuses={k: v for k, v in first["statuses"].items() if k != "6"}))
        idx = [i for i, e in enumerate(events) if e.rule == "PD2"][2]
        full = {"0": 2, "1": 2, "2": 2, "3": 1, "4": 1, "5": 1, "6": 1}
        events[idx] = events[idx]._replace(payload={"statuses": full})
        verdict = check_rule_legality(Trace("pdfd", events))
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, "PD2 moved node 6 from None to 1", events[idx].seq)

    @pytest.mark.parametrize("run,rule", [(run_pdfd, "PD6"), (run_pbfd, "PB4")])
    def test_a_rule_without_an_effect_changes_nothing(self, run, rule):
        """The last such event, when node 0 is finalized."""
        ev, verdict = self._forged(run, rule, lambda p: dict(p, status_changes={"0": 1}), -1)
        assert verdict == (False, f"{rule} moved node 0 from 2 to 1", ev.seq)

    @pytest.mark.parametrize("run,rule,source", [
        (run_pdfd, "PD2b", "S2"), (run_pdfd, "PD6", "S4"), (run_pbfd, "PB4", "S2")])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_an_attempt_counts_the_queries_at_its_source_and_level(
            self, run, rule, source, delta):
        ev, verdict = self._forged(run, rule, lambda p: dict(p, attempt=p["attempt"] + delta))
        level = ev.payload["level"]
        assert verdict == (
            False, f"{rule} attempt {1 + delta} is not query 1 at {source}({level})", ev.seq)

    def test_a_retried_query_counts_on(self):
        """A level that fails once is queried again: its second attempt is 2."""
        h = perfect_tree(2, 3)
        sc = Scenario(r_max=3, trace_origin=TraceOriginStrategy.fixed(2),
                      validation_script={("level", 2, 1): {n.id for n in h.level(2)}})
        trace = run_pdfd(h, sc).trace
        assert [(e.rule, e.payload["attempt"]) for e in trace if e.from_state == "S2(2)"] == [
            ("PD2a", 1), ("PD2b", 2)]
        assert check_rule_legality(trace).ok

    @pytest.mark.parametrize("run", [run_pdfd, run_pbfd])
    def test_k4_at_s1_is_the_size_of_the_level(self, run):
        trace = run(perfect_tree(2, 3), Scenario(r_max=1)).trace
        fold = DescentFold(trace.methodology)
        at_s1 = []
        for ev in trace:
            fold.feed([ev])
            if ev.to_state.startswith("S1("):
                at_s1.append(fold.measure[3])
        assert at_s1 == [1, 2, 4]


class TestDeadlock:
    def test_static_rule_coverage(self):
        assert check_deadlock_freeness("pdfd").ok
        assert check_deadlock_freeness("pbfd").ok

    def test_sink_states(self):
        for rules in (PDFD_RULES, PBFD_RULES):
            sources = {src for s in rules.values() for src in s.sources}
            targets = {t for s in rules.values() for t in s.targets}
            assert (targets - sources) <= {"T", "S5"}

    @pytest.mark.parametrize("methodology", sorted(RULE_TABLES))
    def test_static_check_passes_every_machine(self, methodology):
        v = check_deadlock_freeness(methodology)
        assert (v.ok, v.detail) == (True, "static rule coverage only")

    def test_final_families_are_the_terminal_rules_targets(self, monkeypatch):
        """A family only a step rule moves to is stuck; the same family as a
        terminal rule's target is final."""
        rules = dict(RULE_TABLES["dfd"])
        monkeypatch.setitem(RULE_TABLES, "dfd", rules)
        rules["DF8"] = RuleSpec(("S2",), ("S9",))
        v = check_deadlock_freeness("dfd")
        assert (v.ok, v.detail) == (False, "state family S9 has no outgoing rule")
        rules["DF8"] = RuleSpec(("S2",), ("S9",), "terminal")
        assert check_deadlock_freeness("dfd").ok

    def test_bounded_enumeration(self):
        h = uniform_hierarchy([1, 2, 2])
        for methodology, runs in (("pdfd", 9), ("pbfd", 7)):
            v = check_deadlock_freeness(methodology, h, r_max=1)
            assert v.ok, v.detail
            assert v.detail == f"{runs} enumerated runs, all reached T or S5"

    @pytest.mark.parametrize("h", [None, uniform_hierarchy([1, 2])], ids=["static", "enumerated"])
    def test_unknown_methodology_is_a_failed_verdict(self, h):
        v = check_deadlock_freeness("xyz", h)
        assert (v.ok, v.line()) == (False, "FAIL deadlock-freeness[xyz] "
                                           "(unknown methodology 'xyz')")

    @pytest.mark.parametrize("methodology", ["dad", "dfd", "bfd", "cdd", "tle"])
    def test_basic_machine_with_a_hierarchy_is_a_value_error(self, methodology):
        with pytest.raises(ValueError, match=f"^'{methodology}' is not a hybrid machine"):
            check_deadlock_freeness(methodology, uniform_hierarchy([1, 2]))


# -- the replay enumerator, kept as the oracle of enumerate_runs ----------------------


class _ForkingScenario(Scenario):
    """Scenario that replays a fixed pass/fail decision prefix, then passes;
    a failing query fails every candidate."""

    def __init__(self, base: Scenario, decisions: list[bool]):
        super().__init__(
            r_max=base.r_max,
            k_thresholds=dict(base.k_thresholds),
            trace_origin=base.trace_origin,
        )
        self._decisions = decisions
        self.queries = 0

    def failing_nodes(self, phase, index, attempt, candidates):
        fail = self.queries < len(self._decisions) and self._decisions[self.queries]
        self.queries += 1
        return set(candidates) if fail else set()


RUNNERS = {"pdfd": run_pdfd, "pbfd": run_pbfd}


def replay_runs(methodology, h, base):
    """Each distinct run, replayed from its first event under its decision
    prefix, in depth-first order: a run forks once per query it answered by
    default, below ``_MAX_FORK_DEPTH``, and the deepest fork runs next."""
    runner = RUNNERS[methodology]
    results, stack = [], [[]]
    while stack:
        prefix = stack.pop()
        sc = _ForkingScenario(base, prefix)
        results.append(runner(h, sc))
        for depth in range(len(prefix), min(sc.queries, _MAX_FORK_DEPTH)):
            stack.append(prefix + [False] * (depth - len(prefix)) + [True])
    return results


def _forking_both_ways(methodology, h, base):
    """Fork every default-answered query into a fail and an explicit pass.
    A trailing pass replays the shorter prefix's run, so this meets every
    run, most of them more than once."""
    results, stack = [], [[]]
    while stack:
        prefix = stack.pop()
        sc = _ForkingScenario(base, prefix)
        results.append(RUNNERS[methodology](h, sc))
        if len(prefix) < _MAX_FORK_DEPTH and sc.queries > len(prefix):
            stack += [prefix + [True], prefix + [False]]
    return results


def replay_verdict(methodology, h, r_max):
    """check_deadlock_freeness's verdict from the replayed runs: well-formed,
    then measure descent, on each run; the first failing run decides."""
    base = Scenario(r_max=r_max, trace_origin=TraceOriginStrategy.fixed(1))
    results = replay_runs(methodology, h, base)
    name = f"deadlock-freeness[{methodology}]"
    for res in results:
        for check in (check_well_formed, check_measure_descent):
            v = check(res.trace, methodology)
            if not v.ok:
                return Verdict(name, False, f"enumerated run: {v.detail}", v.first_violation_seq)
    return Verdict(name, True, f"{len(results)} enumerated runs, all reached T or S5")


def _verdict_key(v: Verdict):
    return v.ok, v.detail, v.first_violation_seq


class TestEnumerateRuns:
    @pytest.mark.parametrize("tree", [[1, 2], [1, 2, 2], [1, 2, 3], [1, 2, 2, 2]], ids=str)
    @pytest.mark.parametrize("r_max", [1, 2])
    @pytest.mark.parametrize("methodology", ["pdfd", "pbfd"])
    def test_each_distinct_run_once(self, tree, r_max, methodology):
        """The same runs in the same order as the replay, each once."""
        h = uniform_hierarchy(tree)
        base = Scenario(r_max=r_max, trace_origin=TraceOriginStrategy.fixed(1))
        traces = [r.trace.to_jsonl() for r, _folds in enumerate_runs(methodology, h, base)]
        assert traces == [r.trace.to_jsonl() for r in replay_runs(methodology, h, base)]
        assert len(traces) == len(set(traces))
        reference = {r.trace.to_jsonl() for r in _forking_both_ways(methodology, h, base)}
        assert set(traces) == reference

    @pytest.mark.parametrize("methodology,levels", [("pdfd", 24), ("pbfd", 34)])
    def test_runs_past_the_fork_depth(self, methodology, levels):
        """A chain this deep asks more than ``_MAX_FORK_DEPTH`` queries in
        its passing run (pdfd three per level, pbfd two), so the cut decides
        which forks are kept."""
        h = uniform_hierarchy([1] * levels)
        base = Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1))
        runs = list(enumerate_runs(methodology, h, base))
        first = runs[0][0].trace
        assert sum(1 for ev in first if "failing" in ev.payload) > _MAX_FORK_DEPTH
        assert [r.trace.to_jsonl() for r, _ in runs] == [
            r.trace.to_jsonl() for r in replay_runs(methodology, h, base)]

    @pytest.mark.parametrize("r_max", [1, 2])
    @pytest.mark.parametrize("methodology", ["pdfd", "pbfd"])
    def test_each_run_has_its_own_folds(self, methodology, r_max):
        """The folds forked with the engine end in the verdicts the checks
        give on the finished trace."""
        h = uniform_hierarchy([1, 2, 3])
        base = Scenario(r_max=r_max, trace_origin=TraceOriginStrategy.fixed(1))
        folds = (WellFormedFold(methodology), DescentFold(methodology))
        runs = enumerate_runs(methodology, h, base, folds)
        for res, (wf, md) in runs:
            assert wf.verdict() == check_well_formed(res.trace, methodology)
            assert md.verdict() == check_measure_descent(res.trace, methodology)


def _inject(monkeypatch, skew_statuses: bool, misname_end: bool):
    """Faults on some branches only.  ``skew_statuses`` makes each event
    that failed a level-2 query also record its failing nodes as finalized,
    or a finalized one as in progress, which moves k1 where its rule keeps
    it equal; ``misname_end`` gives the last event of every run that burned
    an attempt a rule that cannot fire there."""
    original = hybrid_machines._Engine.emit

    def emit(self, rule, new_state, payload):
        original(self, rule, new_state, payload)
        ev = self.trace.events[-1]
        p = ev.payload
        if skew_statuses and p.get("failing") and p.get("level") == 2:
            changes = dict(p["status_changes"], **{
                str(n): 1 if self.statuses[n] == 2 else 2 for n in p["failing"]})
            ev = ev._replace(payload=dict(p, status_changes=changes))
        if misname_end and self.done and any(self.attempts.values()):
            ev = ev._replace(rule="PB2" if self.methodology == "pbfd" else "PD2")
        self.trace.events[-1] = ev

    monkeypatch.setattr(hybrid_machines._Engine, "emit", emit)


class TestEnumeratedFaults:
    @pytest.mark.parametrize("faults", [(True, False), (False, True), (True, True)],
                             ids=["descent", "well-formed", "both"])
    @pytest.mark.parametrize("tree", [[1, 2, 2], [1, 2, 3], [1, 2, 2, 2]], ids=str)
    @pytest.mark.parametrize("methodology", ["pdfd", "pbfd"])
    def test_same_failure_as_replay(self, monkeypatch, methodology, tree, faults):
        _inject(monkeypatch, *faults)
        h = uniform_hierarchy(tree)
        for r_max in (1, 2):
            verdict = check_deadlock_freeness(methodology, h, r_max)
            assert not verdict.ok
            assert _verdict_key(verdict) == _verdict_key(replay_verdict(methodology, h, r_max))

    def test_well_formed_decides_a_run_that_fails_both(self, monkeypatch):
        """Descent fails earlier in the first failing run; well-formedness
        is reported, at its later event."""
        _inject(monkeypatch, True, True)
        h = uniform_hierarchy([1, 2])  # the first fork fails the level-2 top-down query
        base = Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1))
        folds = (WellFormedFold("pdfd"), DescentFold("pdfd"))
        wf, md = next(f for _r, f in enumerate_runs("pdfd", h, base, folds)
                      if not all(fold.verdict().ok for fold in f))
        assert md.verdict().first_violation_seq < wf.verdict().first_violation_seq
        verdict = check_deadlock_freeness("pdfd", h)
        assert (verdict.detail, verdict.first_violation_seq) == (
            f"enumerated run: {wf.verdict().detail}", wf.verdict().first_violation_seq)


class TestMonitorPurity:
    def test_rerunning_checkers_yields_identical_verdicts(self):
        res = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
        for checker in (
            check_well_formed,
            check_rule_legality,
            check_measure_descent,
            check_bounded_refinement,
            check_finalization,
        ):
            first = checker(res.trace)
            second = checker(res.trace)
            assert (first.ok, first.detail, first.first_violation_seq) == (
                second.ok, second.detail, second.first_violation_seq
            )


class TestMonitorIndependence:
    """The engine's own status map is not the trace: the descent monitor
    computes M from the status changes the trace records, not from what
    the engine did."""

    @pytest.mark.parametrize("run,rule,pre", [(run_pdfd, "PD2b", "(11, 360, 2, 0)"),
                                              (run_pbfd, "PB4a", "(11, 360, 1, 0)")],
                             ids=["run_pdfd", "run_pbfd"])
    def test_skewed_engine_counter_is_caught(self, run, rule, pre, monkeypatch):
        """The engine finalizes the one-node root level and leaves the
        change out of the trace: the finalizing rule does not lower k1, so
        M rises with the phase ordinal."""
        original = hybrid_machines._Engine.finalize

        def skewed_finalize(self, ids):
            original(self, ids)
            if not getattr(self, "_skewed", False):
                self._changed.clear()
                self._skewed = True

        monkeypatch.setattr(hybrid_machines._Engine, "finalize", skewed_finalize)
        res = run(visited_places_hierarchy(), pdfd_mvp_scenario())
        first_finalizing = next(e for e in res.trace if e.rule == rule)
        verdict = check_measure_descent(res.trace)
        assert (verdict.ok, verdict.detail, verdict.first_violation_seq) == (
            False, f"{rule} did not decrease M: {pre} -> (11, 360, 3, 2)", first_finalizing.seq)


class TestTraceLengthCap:
    @pytest.mark.parametrize("seed", range(25))
    def test_runs_fit_inside_the_measure_cap(self, seed):
        rng = random.Random(seed)
        sizes = [1] + [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        h = uniform_hierarchy(sizes)
        sc = Scenario(
            r_max=rng.choice([1, 2, 5]),
            trace_origin=TraceOriginStrategy.fixed(1),
            seed=seed,
            random_failure_rate=rng.choice([0.0, 0.4]),
        )
        for runner in (run_pdfd, run_pbfd):
            res = runner(h, sc)
            cap = trace_length_cap(len(h), h.max_level, sc.r_max)
            assert len(res.trace) <= cap
