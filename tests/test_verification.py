"""Monitors: measure arithmetic, descent, bounds, finalization invariance,
deadlock freeness, and injected-fault detection."""

import random

import pytest

from treeflow.fixtures import (
    pdfd_mvp_scenario,
    perfect_tree,
    uniform_hierarchy,
    visited_places_hierarchy,
)
from treeflow import hybrid_machines
from treeflow.hybrid_machines import run_pbfd, run_pdfd
from treeflow.measure import MeasureError, TraceContext, measure_with_counts, trace_length_cap
from treeflow.scenario import Scenario, TraceOriginStrategy
from treeflow.trace import Trace, TraceEvent
from treeflow.verify import (
    PBFD_RULES,
    PDFD_RULES,
    check_bounded_refinement,
    check_deadlock_freeness,
    check_finalization,
    check_measure_descent,
    check_rule_legality,
    check_well_formed,
    _MAX_FORK_DEPTH,
    _ForkingScenario,
    classify_rules,
    context_of,
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


def snapshot(phase, i=1, j=None, i_orig=None, statuses=None, attempts=None, ctx=None):
    nodes = [n for ids in ctx.levels.values() for n in ids]
    statuses = statuses or {n: 0 for n in nodes}
    attempts = attempts or {l: 0 for l in range(1, ctx.max_level + 1)}
    return {
        "phase": phase,
        "i": i,
        "j": j,
        "i_orig": i_orig,
        "origin_phase": None,
        "attempts": {str(k): v for k, v in attempts.items()},
        "statuses": {str(k): v for k, v in statuses.items()},
    }


def measure_of(snap, ctx):
    """M of a full snapshot, with the status counts taken from its map."""
    statuses = {int(k): v for k, v in snap["statuses"].items()}
    unfinalized = sum(1 for v in statuses.values() if v != 2)
    unvisited = {
        k: sum(1 for n in ids if statuses.get(n, 0) == 0) for k, ids in ctx.levels.items()
    }
    return measure_with_counts(snap, ctx, unfinalized, unvisited)


class TestMeasureOf:
    def test_initial_state_of_seven_node_tree(self):
        _h, ctx = seven_node_ctx()
        m = measure_of(snapshot("S1", i=1, ctx=ctx), ctx)
        assert m == (7, 9, 3, 1)  # everything unfinalized, 3x3 budget, |level 1|

    def test_terminal_has_no_unfinalized_nodes(self):
        h, ctx = seven_node_ctx()
        done = {n.id: 2 for n in h.nodes.values()}
        m = measure_of(snapshot("T", statuses=done, ctx=ctx), ctx)
        assert m[0] == 0

    def test_refinement_entry_decreases_k2_by_one(self):
        """Recompute M from the counters around one scripted backtrack."""
        h = perfect_tree(2, 3)
        sc = Scenario(
            r_max=3,
            trace_origin=TraceOriginStrategy.fixed(2),
            validation_script={("level", 2, 1): {n.id for n in h.level(2)}},
        )
        res = run_pdfd(h, sc)
        ev = next(e for e in res.trace if e.rule == "PD2a")
        assert ev.measure_pre[1] - ev.measure_post[1] == 1

    def test_budget_counts_every_level(self):
        _h, ctx = seven_node_ctx()
        snap = snapshot("S1", i=1, attempts={1: 0, 2: 1, 3: 0}, ctx=ctx)
        assert measure_of(snap, ctx)[1] == 8      # 3x3 budget minus one spent

    def test_negative_component_is_a_typed_error(self):
        _h, ctx = seven_node_ctx()
        snap = snapshot("S1", i=1, attempts={1: 10, 2: 0, 3: 0}, ctx=ctx)  # k2 = 9 - 10
        with pytest.raises(MeasureError, match="must be non-negative"):
            measure_of(snap, ctx)


class TestDescent:
    def test_pdfd_mvp_full_descent(self):
        res = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
        assert check_measure_descent(res.trace).ok

    def test_pd2b_component_pattern(self):
        res = run_pdfd(
            perfect_tree(2, 3),
            Scenario(r_max=2, trace_origin=TraceOriginStrategy.fixed(1)),
        )
        ev = next(e for e in res.trace if e.rule == "PD2b")
        pre, post = ev.measure_pre, ev.measure_post
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
        res = run_pbfd(h, sc)
        ev = next(e for e in res.trace if e.rule == "PB3")
        pre, post = ev.measure_pre, ev.measure_post
        assert post[0] == pre[0]   # no finalization change
        assert post[1] < pre[1]    # one attempt burned
        assert post[2] > pre[2]    # phase ordinal regresses
        assert post < pre          # still descends lexicographically

    def test_rule_classification_matches_tables(self):
        pdfd = classify_rules("pdfd")
        assert pdfd["PD1"] == "initial"
        for r in ("PD6b", "PD7", "PD8"):
            assert pdfd[r] == "terminal"
        for r in ("PD2", "PD2a", "PD2b", "PD3", "PD3a", "PD3b", "PD3c",
                  "PD4", "PD4a", "PD4b", "PD5", "PD6", "PD6a"):
            assert pdfd[r] == "step"
        pbfd = classify_rules("pbfd")
        assert pbfd["PB1"] == "initial"
        for r in ("PB3a3", "PB3c", "PB7b", "PB8", "PB9"):
            assert pbfd[r] == "terminal"
        for r in ("PB2", "PB2a", "PB3", "PB3a", "PB3a1", "PB3a2", "PB3b",
                  "PB4", "PB4a", "PB4b", "PB5", "PB6", "PB7", "PB7a"):
            assert pbfd[r] == "step"

    def test_manipulated_measure_flagged(self):
        res = run_pdfd(
            perfect_tree(2, 3),
            Scenario(r_max=2, trace_origin=TraceOriginStrategy.fixed(1)),
        )
        events = list(res.trace)
        victim = events[3]
        events[3] = TraceEvent(
            seq=victim.seq, rule=victim.rule, from_state=victim.from_state,
            to_state=victim.to_state, payload=victim.payload,
            measure_pre=victim.measure_pre,
            measure_post=(victim.measure_post[0] + 1,) + victim.measure_post[1:],
        )
        verdict = check_measure_descent(Trace("pdfd", events))
        assert not verdict.ok
        assert verdict.first_violation_seq == victim.seq


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
        ctx = context_of(res.trace)
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

    def test_injected_demotion_is_flagged(self):
        res = run_pdfd(perfect_tree(2, 3), Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1)))
        events = list(res.trace)
        victim = events[-1]
        demoted = next(iter(events[0].payload["statuses"]))  # finalized by the end
        events[-1] = TraceEvent(
            seq=victim.seq, rule=victim.rule, from_state=victim.from_state,
            to_state=victim.to_state,
            payload=dict(victim.payload, status_changes={demoted: 0}),
            measure_pre=victim.measure_pre, measure_post=victim.measure_post,
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
            measure_pre=ev.measure_pre, measure_post=ev.measure_post,
        )
        verdict = check_rule_legality(Trace("pdfd", events))
        assert not verdict.ok

    def test_broken_chain_flagged(self):
        res = run_pdfd(perfect_tree(2, 3), Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1)))
        events = list(res.trace)
        ev = events[2]
        events[2] = TraceEvent(
            seq=ev.seq, rule=ev.rule, from_state="S4(9)", to_state=ev.to_state,
            payload=ev.payload, measure_pre=ev.measure_pre, measure_post=ev.measure_post,
        )
        assert not check_well_formed(Trace("pdfd", events)).ok


class TestDeadlock:
    def test_static_rule_coverage(self):
        assert check_deadlock_freeness("pdfd").ok
        assert check_deadlock_freeness("pbfd").ok

    def test_sink_states(self):
        for rules in (PDFD_RULES, PBFD_RULES):
            sources = {src for s in rules.values() for src in s.sources}
            targets = {t for s in rules.values() for t in s.targets}
            assert (targets - sources) <= {"T", "S5"}

    def test_bounded_enumeration(self):
        h = uniform_hierarchy([1, 2, 2])
        for methodology, runs in (("pdfd", 9), ("pbfd", 7)):
            v = check_deadlock_freeness(methodology, h, r_max=1)
            assert v.ok, v.detail
            assert v.detail == f"{runs} enumerated runs, all reached T or S5"


def _forking_both_ways(runner, base):
    """Reference enumeration: fork every default-answered query into a fail
    and an explicit pass.  A trailing pass replays the shorter prefix's run,
    so this meets every run, most of them more than once."""
    results, stack = [], [[]]
    while stack:
        prefix = stack.pop()
        sc = _ForkingScenario(base, prefix)
        results.append(runner(sc))
        if len(prefix) < _MAX_FORK_DEPTH and sc.queries > len(prefix):
            stack += [prefix + [True], prefix + [False]]
    return results


class TestEnumerateRuns:
    @pytest.mark.parametrize("tree", [[1, 2], [1, 2, 2], [1, 2, 3], [1, 2, 2, 2]], ids=str)
    @pytest.mark.parametrize("r_max", [1, 2])
    @pytest.mark.parametrize("run", [run_pdfd, run_pbfd], ids=["pdfd", "pbfd"])
    def test_each_distinct_run_once(self, tree, r_max, run):
        h = uniform_hierarchy(tree)
        base = Scenario(r_max=r_max, trace_origin=TraceOriginStrategy.fixed(1))
        results, n = enumerate_runs(lambda sc: run(h, sc), base)
        traces = [r.trace.to_jsonl() for r in results]
        assert n == len(traces) == len(set(traces))
        reference = {r.trace.to_jsonl() for r in _forking_both_ways(lambda sc: run(h, sc), base)}
        assert set(traces) == reference


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
    """The engine counts unfinalized and unvisited nodes incrementally; the
    descent monitor must recompute M from the payload, not echo the engine."""

    @pytest.mark.parametrize("run", [run_pdfd, run_pbfd])
    def test_skewed_engine_counter_is_caught(self, run, monkeypatch):
        original = hybrid_machines._Engine.finalize

        def skewed_finalize(self, ids):
            newly = original(self, ids)
            if not getattr(self, "_skewed", False):
                self._unfinalized += 1
                self._skewed = True
            return newly

        monkeypatch.setattr(hybrid_machines._Engine, "finalize", skewed_finalize)
        res = run(visited_places_hierarchy(), pdfd_mvp_scenario())
        first_finalizing = next(e for e in res.trace if e.payload.get("finalized"))
        verdict = check_measure_descent(res.trace)
        assert not verdict.ok
        assert verdict.first_violation_seq == first_finalizing.seq
        assert verdict.detail.startswith("recorded post-measure")
        assert "!= recomputed" in verdict.detail


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
