"""Event-level conformance: alphabets, acceptance, prefix closure,
transposition rejection."""

import re

import pytest

from treeflow.basic_machines import Dag, run_bfd, run_cdd, run_dad, run_dfd
from treeflow.csp import (
    STOP,
    TABLE_SPECS,
    _alphabet,
    accept_events,
    annotate_trace,
    check_csp_conformance,
    make_recognizer,
    table,
)
from treeflow.fixtures import (
    geo_hierarchy,
    pbfd_mvp_scenario,
    pdfd_mvp_scenario,
    perfect_tree,
    visited_places_hierarchy,
)
from treeflow.hybrid_machines import run_pbfd, run_pdfd
from treeflow.scenario import Scenario, TraceOriginStrategy
from treeflow.tle import TleStore, TraversalPage, tle_traverse


def golden_traces():
    h = perfect_tree(2, 3)
    plain = Scenario(r_max=2, trace_origin=TraceOriginStrategy.fixed(1))
    yield "dad", run_dad(Dag.from_hierarchy(h))
    yield "dfd", run_dfd(h)
    yield "bfd", run_bfd(h)
    yield "cdd", run_cdd([1, 2, 3], m_cap=2)
    yield "pdfd", run_pdfd(h, plain).trace
    yield "pbfd", run_pbfd(h, plain).trace
    store = TleStore(geo_hierarchy())
    pages = [TraversalPage((1,), {2: True}), TraversalPage((2,), {9: True})]
    yield "tle", tle_traverse(store, 1, pages)


class TestAcceptance:
    @pytest.mark.parametrize("methodology,trace", list(golden_traces()))
    def test_failure_free_traces_accepted(self, methodology, trace):
        verdict = check_csp_conformance(trace, methodology)
        assert verdict.ok, verdict.detail

    def test_pbfd_sequence_starts_with_load_and_init(self):
        h = perfect_tree(2, 3)
        res = run_pbfd(h, Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1)))
        events = [name for _seq, name in annotate_trace(res.trace)]
        assert events[0] == "load_tree_actual"
        assert events[1] == "initialize_refinement_attempts_actual"
        assert events[2] == "process_pattern_actual.1"

    def test_failure_traces_also_conform(self):
        res = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
        assert check_csp_conformance(res.trace).ok
        res2 = run_pbfd(geo_hierarchy(), pbfd_mvp_scenario())
        assert check_csp_conformance(res2.trace).ok


class TestPrefixClosure:
    def test_single_event_prefix_accepted(self):
        assert accept_events("pbfd", ["load_tree_actual"]).accepted
        assert accept_events("dfd", ["load_tree_actual"]).accepted
        assert accept_events("tle", ["start_actual"]).accepted

    @pytest.mark.parametrize("methodology,trace", list(golden_traces()))
    def test_every_prefix_accepted(self, methodology, trace):
        events = [name for _seq, name in annotate_trace(trace, methodology)]
        level_domain = None
        if methodology in ("pdfd", "pbfd"):
            level_domain = int(trace.events[0].payload["L"])
        for cut in range(len(events) + 1):
            assert accept_events(methodology, events[:cut], level_domain).accepted


class TestRejection:
    def test_swapped_first_events_rejected_at_event_one(self):
        events = ["initialize_refinement_attempts_actual", "load_tree_actual"]
        result = accept_events("pbfd", events)
        assert not result.accepted
        assert result.reject_index == 0

    @pytest.mark.parametrize("methodology,trace", list(golden_traces()))
    def test_transpositions_near_start_rejected(self, methodology, trace):
        events = [name for _seq, name in annotate_trace(trace, methodology)]
        level_domain = None
        if methodology in ("pdfd", "pbfd"):
            level_domain = int(trace.events[0].payload["L"])
        # Component processing order is commutative by definition, so only
        # the structurally ordered opening is strict there.
        window = 2 if methodology == "cdd" else 4
        checked = 0
        for pos in range(min(window, len(events) - 1)):
            if events[pos] == events[pos + 1]:
                continue
            swapped = list(events)
            swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
            result = accept_events(methodology, swapped, level_domain)
            assert not result.accepted, (methodology, pos)
            assert result.reject_index <= pos + 1
            checked += 1
        assert checked >= 1

    def test_alphabet_violation_rejected(self):
        rec = make_recognizer("dad")
        assert not rec.step("definitely_not_an_event")

    def test_level_domain_truncation(self):
        # Default domain is 5; a level-6 event must be refused unless the
        # recognizer was built with an extended domain.
        prefix = ["load_tree_actual", "initialize_refinement_attempts_actual"]
        assert not accept_events("pdfd", prefix + ["determine_ki_actual.6"]).accepted
        # With an extended domain the level parameter itself is fine, but the
        # run still starts at level 1, so the event stays out of sequence.
        assert not accept_events(
            "pdfd", prefix + ["determine_ki_actual.6"], level_domain=6
        ).accepted
        assert accept_events(
            "pdfd", prefix + ["determine_ki_actual.1"], level_domain=6
        ).accepted

    @pytest.mark.parametrize("level", ["\u00b2", "\u2460"])  # superscript two, circled one
    def test_a_digit_int_cannot_read_is_refused_not_raised(self, level):
        """``str.isdigit`` holds for these, but they are no decimal number:
        the level-domain check must not hand them to ``int``."""
        prefix = ["load_tree_actual", "initialize_refinement_attempts_actual"]
        result = accept_events("pdfd", prefix + [f"determine_ki_actual.{level}"])
        assert (result.accepted, result.reject_index) == (False, 2)


class TestAlphabets:
    @pytest.mark.parametrize("methodology,trace", list(golden_traces()))
    def test_all_annotated_events_inside_alphabet(self, methodology, trace):
        alphabet = _alphabet(table(methodology))
        for _seq, name in annotate_trace(trace, methodology):
            assert name.split(".")[0] in alphabet

    def test_alphabets_are_disjoint_enough(self):
        # Shared generic names exist, but each alphabet is its own contract.
        assert "process_pattern_actual" in _alphabet(table("pbfd"))
        assert "process_pattern_actual" not in _alphabet(table("pdfd"))
        assert "finalize_subtrees_actual" in _alphabet(table("pdfd"))


class TestTableBuild:
    @pytest.mark.parametrize("spec,error", [
        ({"S": [("a.{1}", STOP), ("a.{2}", STOP)]}, "two S branches start with a"),
        ({"S": [("a.lit", STOP)]}, "a: unsupported parameter 'lit'"),
    ], ids=["duplicate-branch", "unsupported-parameter"])
    def test_a_faulty_spec_raises_at_its_first_build(self, monkeypatch, spec, error):
        monkeypatch.setitem(TABLE_SPECS, "forged", spec)
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            table("forged")
