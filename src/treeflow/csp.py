"""Event-level conformance: alphabets and table-driven recognizers.

Each trace rule expands into a short sequence of named events (the
annotation).  Each methodology's process definitions are one transition
table, written here and built once at import; a recognizer walks the table
and accepts exactly the event sequences the process allows, prefix-closed;
rejection reports the first illegal event.  The tables describe the process
definitions, not the engines, so the engines are checked against something
they do not own.  Parameterized events serialize as ``name.param[.param]``;
level parameters are bounded by the recognizer's level domain (default 5,
configurable for deeper trees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .trace import Trace, TraceEvent
from .verify import Verdict

DEFAULT_LEVEL_DOMAIN = 5

ALPHABETS: dict[str, set[str]] = {
    "dad": {
        "load_dag_actual", "initialize_queue_actual", "queue_not_empty",
        "dequeue_actual", "process_actual", "validate_dependencies_actual",
        "all_dependencies_processed", "missing_dependency", "extend_graph_actual",
        "enqueue_nodes_actual", "generate_children_actual", "all_nodes_processed",
        "perform_final_validation_actual", "terminate_successfully_actual",
        "terminate_with_error_actual",
    },
    "dfd": {
        "load_tree_actual", "initialize_stack_actual", "stack_is_empty",
        "stack_not_empty", "dequeue_actual", "process_actual", "is_non_leaf",
        "process_child_actual", "push_children_actual", "is_leaf",
        "set_backtrack_point_actual", "has_unprocessed_sibling",
        "get_unprocessed_sibling_actual", "push_sibling_actual",
        "no_unprocessed_sibling", "validate_subtree_actual", "subtree_validated",
        "backtrack_to_actual", "no_more_backtrack_points_above",
        "terminate_successfully_actual", "terminate_with_error_actual",
    },
    "bfd": {
        "load_project_actual", "initialize_queue_actual", "dequeue_actual",
        "develop_actual", "enqueue_children_actual", "current_level_processed_actual",
        "validate_level_actual", "not_last_level_actual", "advance_level_actual",
        "last_level_actual", "terminate_successfully_actual",
        "terminate_with_error_actual",
    },
    "cdd": {
        "load_graph_actual", "initialize_dependencies_actual", "process_node_actual",
        "test_failed", "feedback_cycle_detected", "refine_component_actual",
        "trigger_revision_actual", "refactor_complete_actual",
        "all_components_written_actual", "validate_increment_actual",
        "feedback_received_actual", "validation_failed_actual", "identify_flaw_actual",
        "flaw_identified_actual", "all_increments_validated_actual",
        "final_deployment_actual", "terminate_successfully_actual",
        "terminate_with_error_actual",
    },
    "pdfd": {
        "load_tree_actual", "initialize_refinement_attempts_actual",
        "determine_ki_actual", "process_level_actual", "get_trace_origin_actual",
        "increment_refinement_attempts_actual", "finalize_subtrees_actual",
        "finalize_unprocessed_nodes_actual", "is_level_validation_failed",
        "level_validation_successful", "is_refactor_validation_successful",
        "is_bottom_up_validation_failed", "bottom_up_validation_successful",
        "is_top_down_validation_failed", "top_down_validation_successful",
        "has_exhausted_rmax_for_level", "can_attempt_refinement",
        "cond_threshold_met", "cond_has_no_children",
        "cond_all_descendants_validated", "top_down_reaches_L5",
        "refinement_failed_no_retry", "no_refinement_path_available",
        "terminate_with_error_actual", "terminate_successfully_actual",
    },
    "pbfd": {
        "load_tree_actual", "initialize_refinement_attempts_actual",
        "process_pattern_actual", "validate_pattern_actual", "resolve_depth_actual",
        "process_refinement_pattern_actual", "validate_refinement_pattern_actual",
        "resolve_refinement_depth_actual", "finalize_pattern_actual",
        "increment_refinement_attempts_actual", "terminate_success_actual",
        "terminate_failure_actual", "cond_all_validated", "cond_not_all_validated",
        "cond_i_lt_L", "cond_i_eq_L", "cond_pattern_next_empty",
        "cond_pattern_next_nonempty", "cond_ref_attempts_lt_Rmax",
        "cond_ref_attempts_ge_Rmax", "cond_j_exists_for_i", "cond_j_not_exists_for_i",
        "cond_j_lt_i", "cond_j_eq_i", "cond_all_processed", "cond_not_all_processed",
        "cond_trace_origin_exists_for_unprocessed",
        "cond_trace_origin_not_exists_for_unprocessed",
    },
    "tle": {
        "start_actual", "load_page_actual", "parent_nodes_received_actual",
        "resolve_grandparent_actual", "load_grandparent_table_actual",
        "resolve_child_actual", "preset_child_status_actual", "update_bitmask_actual",
        "more_pages_exist_actual", "no_more_pages_exist_actual",
        "finalize_process_actual",
    },
}


# -- annotation: engine rule -> events -------------------------------------------------
#
# An event is a tuple of segments: the event name, then each parameter as
# its ``str``.  ``annotate_trace`` joins them into ``name.param[.param]``.


def annotate_trace(trace: Trace, methodology: str | None = None) -> list[tuple[int, str]]:
    """Expand each trace event into (seq, csp_event) pairs."""
    return [
        (seq, ".".join(event))
        for seq, events in _annotate(trace, methodology or trace.methodology)
        for event in events
    ]


def _annotate(trace: Trace, methodology: str) -> list[tuple[int, list[tuple[str, ...]]]]:
    """The events of every trace event, as (seq, events) per trace event."""
    fn = _ANNOTATORS[methodology]
    ctx: dict[str, Any] = {}
    if trace.events and "L" in trace.events[0].payload:
        ctx["L"] = int(trace.events[0].payload["L"])
    return [(ev.seq, fn(ev, ctx)) for ev in trace]


def _annotate_pdfd(ev: TraceEvent, ctx: dict) -> list[tuple[str, ...]]:
    p = ev.payload
    r = ev.rule
    i = str(p.get("level"))
    j = str(p.get("j"))
    if r == "PD1":
        return [("load_tree_actual",), ("initialize_refinement_attempts_actual",)]
    if r == "PD2" or r == "PD3":
        if r == "PD2":
            i = str(int(ev.to_state[3:-1]))
        return [("determine_ki_actual", i), ("process_level_actual", i)]
    if r == "PD2a":
        return [
            ("is_level_validation_failed", i),
            ("get_trace_origin_actual", i, j),
            ("can_attempt_refinement", j),
            ("increment_refinement_attempts_actual", j),
        ]
    if r == "PD2b":
        return [("level_validation_successful", i), ("cond_threshold_met", i)]
    if r == "PD4":
        level = p.get("level")
        if int(level) == ctx.get("L", level):
            return [("level_validation_successful", i), ("cond_threshold_met", i)]
        return [("level_validation_successful", i), ("cond_has_no_children", i)]
    if r == "PD3a":
        end = str(p["range_end"])
        return [
            ("is_refactor_validation_successful", i, end),
            ("increment_refinement_attempts_actual", str(int(p.get("level")) + 1)),
        ]
    if r == "PD3b":
        return [("is_refactor_validation_successful", i, str(p["range_end"]))]
    if r == "PD3c":
        return [
            ("refinement_failed_no_retry", i, str(p["range_end"])),
            ("can_attempt_refinement", i),
            ("increment_refinement_attempts_actual", i),
        ]
    if r == "PD4a" or r == "PD5":
        return [
            ("finalize_subtrees_actual", i),
            ("bottom_up_validation_successful", i),
            ("cond_all_descendants_validated", i),
        ]
    if r == "PD4b":
        return [
            ("finalize_subtrees_actual", i),
            ("is_bottom_up_validation_failed", i),
            ("get_trace_origin_actual", i, j),
            ("can_attempt_refinement", j),
            ("increment_refinement_attempts_actual", j),
        ]
    if r == "PD6":
        return [("finalize_unprocessed_nodes_actual", i), ("top_down_validation_successful", i)]
    if r == "PD6a":
        return [
            ("finalize_unprocessed_nodes_actual", i),
            ("is_top_down_validation_failed", i),
            ("get_trace_origin_actual", i, j),
            ("can_attempt_refinement", j),
            ("increment_refinement_attempts_actual", j),
        ]
    if r == "PD6b":
        return [
            ("finalize_unprocessed_nodes_actual", i),
            ("is_top_down_validation_failed", i),
            ("no_refinement_path_available", i),
            ("terminate_with_error_actual",),
        ]
    if r == "PD7":
        return [
            ("finalize_unprocessed_nodes_actual", i),
            ("top_down_validation_successful", i),
            ("top_down_reaches_L5", i),
            ("terminate_successfully_actual",),
        ]
    if r == "PD8":
        if p.get("reason") == "refinement_exhausted":
            return [("has_exhausted_rmax_for_level", i), ("terminate_with_error_actual",)]
        from_fam = ev.from_state.split("(")[0]
        prefix = []
        if from_fam == "S2":
            prefix = [("is_level_validation_failed", i)]
        elif from_fam == "S3":
            prefix = [("finalize_subtrees_actual", i), ("is_bottom_up_validation_failed", i)]
        return prefix + [("no_refinement_path_available", i), ("terminate_with_error_actual",)]
    raise ValueError(f"unknown rule {r}")


def _annotate_pbfd(ev: TraceEvent, ctx: dict) -> list[tuple[str, ...]]:
    p = ev.payload
    r = ev.rule
    i = str(p.get("level"))
    j = str(p.get("j"))
    if r == "PB1":
        return [("load_tree_actual",), ("initialize_refinement_attempts_actual",)]
    if r == "PB2" or r == "PB2a":
        i = str(int(ev.to_state[3:-1]))
        cond = "cond_not_all_validated" if r == "PB2" else "cond_all_validated"
        return [("process_pattern_actual", i), (cond, i)]
    if r == "PB4":
        return [("validate_pattern_actual", i), ("cond_all_validated", i)]
    if r == "PB3":
        return [
            ("validate_pattern_actual", i),
            ("cond_not_all_validated", i),
            ("cond_j_exists_for_i", i, j),
            ("cond_ref_attempts_lt_Rmax", j),
            ("increment_refinement_attempts_actual", j),
        ]
    if r == "PB3c":
        return [
            ("validate_pattern_actual", i),
            ("cond_not_all_validated", i),
            ("cond_j_not_exists_for_i", i),
            ("terminate_failure_actual",),
        ]
    if r == "PB9":
        return [("cond_ref_attempts_ge_Rmax", i), ("terminate_failure_actual",)]
    if r == "PB3a":
        return [("process_refinement_pattern_actual", i), ("cond_not_all_validated", i)]
    if r == "PB3b":
        return [("process_refinement_pattern_actual", i), ("cond_all_validated", i)]
    if r == "PB3a1":
        return [("validate_refinement_pattern_actual", i), ("cond_all_validated", i)]
    if r == "PB3a2":
        return [
            ("validate_refinement_pattern_actual", i),
            ("cond_not_all_validated", i),
            ("cond_ref_attempts_lt_Rmax", i),
            ("increment_refinement_attempts_actual", i),
        ]
    if r == "PB5":
        nxt = str(int(p.get("level")) + 1)
        return [
            ("resolve_refinement_depth_actual", i),
            ("cond_j_lt_i", i, str(p["range_end"])),
            ("increment_refinement_attempts_actual", nxt),
        ]
    if r == "PB6":
        return [
            ("resolve_refinement_depth_actual", i),
            ("cond_j_eq_i", i, str(p["range_end"])),
        ]
    if r == "PB4a":
        return [
            ("resolve_depth_actual", i),
            ("cond_i_lt_L", i),
            ("cond_pattern_next_nonempty", i),
        ]
    if r == "PB4b":
        level = p.get("level")
        if int(level) == ctx.get("L", level):
            return [("resolve_depth_actual", i), ("cond_i_eq_L", i)]
        return [("resolve_depth_actual", i), ("cond_pattern_next_empty", i)]
    if r == "PB7":
        return [("finalize_pattern_actual", i), ("cond_all_processed", i), ("cond_i_lt_L", i)]
    if r == "PB7a":
        return [
            ("finalize_pattern_actual", i),
            ("cond_not_all_processed", i),
            ("cond_trace_origin_exists_for_unprocessed", i, j),
            ("cond_ref_attempts_lt_Rmax", j),
            ("increment_refinement_attempts_actual", j),
        ]
    if r == "PB7b":
        return [
            ("finalize_pattern_actual", i),
            ("cond_not_all_processed", i),
            ("cond_trace_origin_not_exists_for_unprocessed", i),
            ("terminate_failure_actual",),
        ]
    if r == "PB8":
        return [
            ("finalize_pattern_actual", i),
            ("cond_all_processed", i),
            ("cond_i_eq_L", i),
            ("terminate_success_actual",),
        ]
    raise ValueError(f"unknown rule {r}")


def _annotate_dad(ev: TraceEvent, ctx: dict) -> list[tuple[str, ...]]:
    p = ev.payload
    r = ev.rule
    if r == "DA2":
        v = str(p["node"])
        return [
            ("queue_not_empty",),
            ("dequeue_actual", v),
            ("process_actual", v),
            ("validate_dependencies_actual", v),
        ]
    if r == "DA3":
        v = str(p["node"])
        return [
            ("all_dependencies_processed", v),
            ("generate_children_actual", v),
            ("enqueue_nodes_actual",),
        ]
    if r == "DA5":
        return [("enqueue_nodes_actual",)]
    if r == "DA4":
        v = str(p["node"])
        if "new_node" in p:
            return [("missing_dependency", v), ("extend_graph_actual", v, str(p["new_node"]))]
        return [("missing_dependency", v)]
    if r == "DA1":
        return [("load_dag_actual",), ("initialize_queue_actual", str(p["root"]))]
    if r == "DA6":
        return [
            ("all_nodes_processed",),
            ("perform_final_validation_actual",),
            ("terminate_successfully_actual",),
        ]
    raise ValueError(f"unknown rule {r}")


def _annotate_dfd(ev: TraceEvent, ctx: dict) -> list[tuple[str, ...]]:
    p = ev.payload
    r = ev.rule
    if r == "DF2":
        c = str(p["node"])
        return [
            ("stack_not_empty", c),
            ("dequeue_actual", c),
            ("process_actual", c),
            ("is_non_leaf", c),
            ("process_child_actual", c),
            ("push_children_actual", c),
        ]
    if r == "DF3":
        c = str(p["node"])
        return [
            ("stack_not_empty", c),
            ("dequeue_actual", c),
            ("process_actual", c),
            ("is_leaf", c),
            ("set_backtrack_point_actual", c),
        ]
    if r == "DF4":
        b = str(p["backtrack_point"])
        return [
            ("has_unprocessed_sibling", b),
            ("get_unprocessed_sibling_actual", b),
            ("push_sibling_actual", b),
        ]
    if r == "DF5":
        b = str(p["subtree_root"])
        return [("no_unprocessed_sibling", b), ("validate_subtree_actual", b)]
    if r == "DF6":
        b = str(p["subtree_root"])
        return [("subtree_validated", b), ("backtrack_to_actual", str(p["to"]))]
    if r == "DF1":
        return [("load_tree_actual",), ("initialize_stack_actual", str(p["root"]))]
    if r == "DF7":
        return [
            ("no_more_backtrack_points_above", str(p["backtrack_point"])),
            ("terminate_successfully_actual",),
        ]
    raise ValueError(f"unknown rule {r}")


def _annotate_bfd(ev: TraceEvent, ctx: dict) -> list[tuple[str, ...]]:
    p = ev.payload
    r = ev.rule
    if r == "BF2":
        c = str(p["node"])
        return [("dequeue_actual", c), ("develop_actual", c), ("enqueue_children_actual", c)]
    if r == "BF3":
        return [("current_level_processed_actual",), ("validate_level_actual", str(p["level"]))]
    if r == "BF4":
        k = str(p["level"] - 1)
        return [("not_last_level_actual", k), ("advance_level_actual", k)]
    if r == "BF1":
        return [("load_project_actual",), ("initialize_queue_actual", str(p["root"]))]
    if r == "BF5":
        return [("last_level_actual", str(p["levels"])), ("terminate_successfully_actual",)]
    raise ValueError(f"unknown rule {r}")


def _annotate_cdd(ev: TraceEvent, ctx: dict) -> list[tuple[str, ...]]:
    p = ev.payload
    r = ev.rule
    if r == "CD2":
        return [("process_node_actual", str(p["component"]))]
    if r == "CD3a":
        c = str(p["component"])
        return [("test_failed", c), ("refine_component_actual", c)]
    if r == "CD3b":
        c = str(p["component"])
        return [("feedback_cycle_detected", c), ("trigger_revision_actual", c)]
    if r == "CD4":
        c = str(p["component"])
        extra = max(int(p.get("refine_iterations", 1)) - 1, 0)
        return [("refine_component_actual", c)] * extra + [("refactor_complete_actual", c)]
    if r == "CD5":
        k = str(p["increment"])
        return [("all_components_written_actual", k), ("validate_increment_actual", k)]
    if r == "CD6":
        return [
            ("feedback_received_actual",),
            ("identify_flaw_actual",),
            ("flaw_identified_actual", str(p["component"])),
        ]
    if r == "CD1":
        return [("load_graph_actual",), ("initialize_dependencies_actual",)]
    if r == "CD7":
        return [
            ("all_increments_validated_actual",),
            ("final_deployment_actual",),
            ("terminate_successfully_actual",),
        ]
    raise ValueError(f"unknown rule {r}")


_TLE_EVENTS: dict[str, list[tuple[str, ...]]] = {
    "TLE1": [("start_actual",)],
    "TLE2": [("load_page_actual",), ("parent_nodes_received_actual",)],
    "TLE3": [("resolve_grandparent_actual",)],
    "TLE4": [("load_grandparent_table_actual",)],
    "TLE5": [("resolve_child_actual",), ("preset_child_status_actual",)],
    "TLE6": [("update_bitmask_actual",)],
    "TLE7": [("more_pages_exist_actual",)],
    "TLE8": [("no_more_pages_exist_actual",)],
    "TLE9": [("finalize_process_actual",)],
}


def _annotate_tle(ev: TraceEvent, ctx: dict) -> list[tuple[str, ...]]:
    return _TLE_EVENTS[ev.rule]


_ANNOTATORS: dict[str, Callable[[TraceEvent, dict], list[tuple[str, ...]]]] = {
    "pdfd": _annotate_pdfd,
    "pbfd": _annotate_pbfd,
    "dad": _annotate_dad,
    "dfd": _annotate_dfd,
    "bfd": _annotate_bfd,
    "cdd": _annotate_cdd,
    "tle": _annotate_tle,
}


# -- transition tables: one per methodology ---------------------------------------
#
# A process state is a tuple ``(kind, *values)`` whose values are strings
# (levels as decimal integers).  Each table lists, per kind, the branches
# the process may take there:
#
#     kind -> [(templates, next), ...]
#
# ``templates`` are the events the branch consumes, in order, written as
# space-separated ``name.param[.param]``; the first one's name selects the
# branch.  A parameter is
#
#     {k}   the state's k-th value
#     $x    a capture: binds on first use in the branch, must agree after
#     *     any one segment
#
# ``next`` is the state once the branch is consumed: a state tuple, or a
# function ``(state, captures) -> state`` whose captures are keyed "$x".
# A branch that depends on the state's values is ``_When(name, fn)``: the
# function of ``(state, L)``, L the level domain, returns ``(templates,
# next)`` with the values written in.  A kind with no branch for
# an event, like STOP, refuses it.  At import every templates string is
# split once into tuples of segments (``{k}`` becomes the int k).

Template = tuple[Any, ...]
Entry = Any
ANY = "*"
START = ("start",)
STOP = ("STOP",)
_NO_ENTRIES: dict[str, Entry] = {}


def _templates(text: str) -> tuple[Template, ...]:
    return tuple(
        tuple(int(seg[1:-1]) if seg[0] == "{" else seg for seg in template.split("."))
        for template in text.split()
    )


class _When(NamedTuple):
    """A branch whose templates or next state depend on the state's values."""

    event: str
    fn: Callable[[tuple, int], tuple[str, Any]]


def _table(spec: dict[str, list]) -> dict[str, dict[str, Entry]]:
    """Index each kind's branches by the event that selects them."""
    table: dict[str, dict[str, Entry]] = {}
    for kind, branches in spec.items():
        entries = table[kind] = {}
        for branch in branches:
            if isinstance(branch, _When):
                event, entry = branch
            else:
                entry = (_templates(branch[0]), branch[1])
                event = entry[0][0][0]
            if event in entries:
                raise ValueError(f"two {kind} branches start with {event}")
            entries[event] = entry
    return table


def _as(kind: str) -> Callable[[tuple, dict], tuple]:
    """Next state: the same values under another kind."""
    return lambda s, _b: (kind, *s[1:])


def _next_level(kind: str) -> Callable[[tuple, dict], tuple]:
    return lambda s, _b: (kind, _inc(s[1]))


def _refine(kind: str, origin: str) -> Callable[[tuple, dict], tuple]:
    """Next state after a failure at level i traced back to the captured
    level $j: refine from j up to i, then resume in the origin phase."""
    return lambda s, b: (kind, str(int(b["$j"])), s[1], origin)


def _inc(value: str) -> str:
    return str(int(value) + 1)


def _pdfd_threshold_met(s: tuple, L: int):
    i = int(s[1])
    return f"cond_threshold_met.{i}", ("S1", str(i + 1)) if i < L else ("S3", s[1])


def _pdfd_refactor_checked(s: tuple, L: int):
    _, j, i, origin = s
    if int(j) < int(i):
        nxt = _inc(j)
        return (f"is_refactor_validation_successful.{j}.{i} "
                f"increment_refinement_attempts_actual.{nxt}", ("S1R", nxt, i, origin))
    return f"is_refactor_validation_successful.{j}.{i}", (origin, i)


def _pdfd_bottom_up_ok(s: tuple, L: int):
    i = int(s[1])
    return (f"bottom_up_validation_successful.{i} cond_all_descendants_validated.{i}",
            ("S4", "1") if i <= 2 else ("S3", str(i - 1)))


def _pdfd_top_down_ok(s: tuple, L: int):
    k = s[1]
    if int(k) == L:
        return (f"top_down_validation_successful.{k} top_down_reaches_L5.{k} "
                "terminate_successfully_actual", STOP)
    return f"top_down_validation_successful.{k}", ("S4", _inc(k))


_NO_PATH = ("no_refinement_path_available.{1} terminate_with_error_actual", STOP)

# S1..S4 (i) are the level phases; RAL, S1R and S2R (j, i, origin) refine
# from level j back up to the failing level i, then resume in the origin
# phase.
PDFD_TABLE = _table({
    "start": [("load_tree_actual initialize_refinement_attempts_actual", ("S1", "1"))],
    "S1": [("determine_ki_actual.{1} process_level_actual.{1}", _as("S2"))],
    "S2": [("is_level_validation_failed.{1}", _as("S2fail")),
           ("level_validation_successful.{1}", _as("S2ok"))],
    "S2fail": [("get_trace_origin_actual.{1}.$j", _refine("RAL", "S2")), _NO_PATH],
    "S2ok": [_When("cond_threshold_met", _pdfd_threshold_met),
             ("cond_has_no_children.{1}", _as("S3")), _NO_PATH],
    "RAL": [("has_exhausted_rmax_for_level.{1} terminate_with_error_actual", STOP),
            ("can_attempt_refinement.{1} increment_refinement_attempts_actual.{1}", _as("S1R")),
            ("no_refinement_path_available.* terminate_with_error_actual", STOP)],
    "S1R": [("has_exhausted_rmax_for_level.{1} terminate_with_error_actual", STOP),
            ("determine_ki_actual.{1} process_level_actual.{1}", _as("S2R"))],
    "S2R": [_When("is_refactor_validation_successful", _pdfd_refactor_checked),
            ("refinement_failed_no_retry.{1}.{2}", _as("RAL"))],
    "S3": [("finalize_subtrees_actual.{1}", _as("S3v"))],
    "S3v": [("is_bottom_up_validation_failed.{1}", _as("S3fail")),
            _When("bottom_up_validation_successful", _pdfd_bottom_up_ok)],
    "S3fail": [("get_trace_origin_actual.{1}.$j", _refine("RAL", "S3")), _NO_PATH],
    "S4": [("finalize_unprocessed_nodes_actual.{1}", _as("S4v"))],
    "S4v": [("is_top_down_validation_failed.{1}", _as("S4fail")),
            _When("top_down_validation_successful", _pdfd_top_down_ok)],
    "S4fail": [("get_trace_origin_actual.{1}.$j", _refine("RAL", "S4")), _NO_PATH],
})


def _pbfd_depth_below(s: tuple, L: int):
    _, j, i, origin = s
    nxt = _inc(j)
    return (f"cond_j_lt_i.{j}.{i} increment_refinement_attempts_actual.{nxt}",
            ("S1R", nxt, i, origin))


def _pbfd_depth_reached(s: tuple, L: int):
    _, j, i, origin = s
    return f"cond_j_eq_i.{j}.{i}", ("S3" if origin == "S2" else "S4", i)


# S1..S4 (i) are the pattern phases; Retry and S1R..S3Rc (j, i, origin)
# refine from level j back up to the failing level i, then resume in the
# origin phase.
PBFD_TABLE = _table({
    "start": [("load_tree_actual initialize_refinement_attempts_actual", ("S1", "1"))],
    "S1": [("process_pattern_actual.{1}", _as("S1c"))],
    "S1c": [("cond_all_validated.{1}", _as("S3")), ("cond_not_all_validated.{1}", _as("S2"))],
    "S2": [("validate_pattern_actual.{1}", _as("S2c"))],
    "S2c": [("cond_all_validated.{1}", _as("S3")),
            ("cond_not_all_validated.{1}", _as("S2fail"))],
    "S2fail": [("cond_j_exists_for_i.{1}.$j", _refine("Retry", "S2")),
               ("cond_j_not_exists_for_i.{1} terminate_failure_actual", STOP)],
    "Retry": [("cond_ref_attempts_lt_Rmax.{1} increment_refinement_attempts_actual.{1}",
               _as("S1R")),
              ("cond_ref_attempts_ge_Rmax.{1} terminate_failure_actual", STOP)],
    "S1R": [("cond_ref_attempts_ge_Rmax.{1} terminate_failure_actual", STOP),
            ("process_refinement_pattern_actual.{1}", _as("S1Rc"))],
    "S1Rc": [("cond_all_validated.{1}", _as("S3R")),
             ("cond_not_all_validated.{1}", _as("S2R"))],
    "S2R": [("validate_refinement_pattern_actual.{1}", _as("S2Rc"))],
    "S2Rc": [("cond_all_validated.{1}", _as("S3R")),
             ("cond_not_all_validated.{1}", _as("Retry"))],
    "S3R": [("resolve_refinement_depth_actual.{1}", _as("S3Rc"))],
    "S3Rc": [_When("cond_j_lt_i", _pbfd_depth_below),
             _When("cond_j_eq_i", _pbfd_depth_reached)],
    "S3": [("resolve_depth_actual.{1}", _as("S3c"))],
    "S3c": [("cond_i_lt_L.{1} cond_pattern_next_nonempty.{1}", _next_level("S1")),
            ("cond_i_eq_L.{1}", ("S4", "1")),
            ("cond_pattern_next_empty.{1}", ("S4", "1"))],
    "S4": [("finalize_pattern_actual.{1}", _as("S4c"))],
    "S4c": [("cond_all_processed.{1}", _as("S4ok")),
            ("cond_not_all_processed.{1}", _as("S4fail"))],
    "S4ok": [("cond_i_lt_L.{1}", _next_level("S4")),
             ("cond_i_eq_L.{1} terminate_success_actual", STOP)],
    "S4fail": [("cond_trace_origin_exists_for_unprocessed.{1}.$j", _refine("Retry", "S4")),
               ("cond_trace_origin_not_exists_for_unprocessed.{1} terminate_failure_actual",
                STOP)],
})

DAD_TABLE = _table({
    "start": [("load_dag_actual initialize_queue_actual.*", ("S1",))],
    "S1": [("all_nodes_processed perform_final_validation_actual "
            "terminate_successfully_actual", STOP),
           ("queue_not_empty dequeue_actual.$v process_actual.$v "
            "validate_dependencies_actual.$v", lambda _s, b: ("S2", b["$v"]))],
    "S2": [("all_dependencies_processed.{1} generate_children_actual.{1} enqueue_nodes_actual",
            ("S1",)),
           ("missing_dependency.{1}", _as("S3"))],
    "S3": [("extend_graph_actual.{1}.*", _as("S3")), ("enqueue_nodes_actual", ("S1",))],
})

DFD_TABLE = _table({
    "start": [("load_tree_actual initialize_stack_actual.*", ("S1",))],
    "S1": [("stack_is_empty terminate_successfully_actual", STOP),
           ("stack_not_empty.$c dequeue_actual.$c process_actual.$c",
            lambda _s, b: ("S1p", b["$c"]))],
    "S1p": [("is_non_leaf.{1} process_child_actual.{1} push_children_actual.{1}", ("S1",)),
            ("is_leaf.{1} set_backtrack_point_actual.{1}", ("S2",))],
    "S2": [("has_unprocessed_sibling.$b get_unprocessed_sibling_actual.$b push_sibling_actual.$b",
            ("S1",)),
           ("no_unprocessed_sibling.$b validate_subtree_actual.$b", ("S3",))],
    "S3": [("no_more_backtrack_points_above.* terminate_successfully_actual", STOP),
           ("subtree_validated.$b backtrack_to_actual.*", ("S2",))],
})

BFD_TABLE = _table({
    "start": [("load_project_actual initialize_queue_actual.*", ("S1",))],
    "S1": [("dequeue_actual.$c develop_actual.$c enqueue_children_actual.$c", ("S1",)),
           ("current_level_processed_actual validate_level_actual.$k",
            lambda _s, b: ("S2", b["$k"]))],
    "S2": [("not_last_level_actual.{1} advance_level_actual.{1}", ("S1",)),
           ("last_level_actual.{1} terminate_successfully_actual", STOP)],
})


def _component(_s: tuple, b: dict) -> tuple:
    return ("S2", b["$c"])


CDD_TABLE = _table({
    "start": [("load_graph_actual initialize_dependencies_actual", ("S1",))],
    "S1": [("process_node_actual.*", ("S1",)),
           ("test_failed.$c refine_component_actual.$c", _component),
           ("feedback_cycle_detected.$c trigger_revision_actual.$c", _component),
           ("all_components_written_actual.$k validate_increment_actual.$k", ("S3",))],
    "S2": [("refine_component_actual.{1}", _as("S2")),
           ("refactor_complete_actual.{1}", ("S1",))],
    "S3": [("feedback_received_actual identify_flaw_actual flaw_identified_actual.$c",
            _component),
           ("validation_failed_actual identify_flaw_actual flaw_identified_actual.$c",
            _component),
           ("all_increments_validated_actual final_deployment_actual "
            "terminate_successfully_actual", STOP)],
})

TLE_TABLE = _table({
    "start": [("start_actual", ("S0",))],
    "S0": [("load_page_actual parent_nodes_received_actual", ("S1",)),
           ("no_more_pages_exist_actual", ("S6",))],
    "S1": [("resolve_grandparent_actual", ("S2",))],
    "S2": [("load_grandparent_table_actual", ("S3",))],
    "S3": [("resolve_child_actual preset_child_status_actual", ("S4",))],
    "S4": [("update_bitmask_actual", ("S5",))],
    "S5": [("more_pages_exist_actual", ("S0",)), ("no_more_pages_exist_actual", ("S6",))],
    "S6": [("finalize_process_actual", STOP)],
})

TABLES: dict[str, dict[str, dict[str, Entry]]] = {
    "pdfd": PDFD_TABLE,
    "pbfd": PBFD_TABLE,
    "dad": DAD_TABLE,
    "dfd": DFD_TABLE,
    "bfd": BFD_TABLE,
    "cdd": CDD_TABLE,
    "tle": TLE_TABLE,
}


# -- the recognizer ----------------------------------------------------------------


def _fits(template: Template, event, state: tuple, captures: dict[str, str]) -> bool:
    """Whether the event matches the template.  A captured or wildcard
    segment never contains a dot: joined and split again, such a parameter
    would be several segments."""
    if len(template) != len(event) or template[0] != event[0]:
        return False
    for k in range(1, len(template)):
        want = template[k]
        got = event[k]
        if want.__class__ is int:
            if got != state[want]:
                return False
        elif want == ANY:
            if "." in got:
                return False
        elif want[0] == "$":
            bound = captures.get(want)
            if bound is None:
                if "." in got:
                    return False
                captures[want] = got
            elif bound != got:
                return False
        elif want != got:
            return False
    return True


class Recognizer:
    """Prefix-closed acceptor over one methodology's transition table.

    With no branch in progress, the next event selects one through the
    table; the branch's templates then consume that event and the ones
    after it.  When the last is consumed, the process moves to the next
    state.  Level parameters above the level domain are refused."""

    def __init__(self, methodology: str, level_domain: int | None = None):
        self.alphabet = ALPHABETS[methodology]
        self.table = TABLES[methodology]
        self.level_domain = level_domain
        self.state: tuple = START
        self.branch: tuple[Template, ...] = ()
        self.pos = 0
        self.next: Any = None
        self.captures: dict[str, str] = {}

    def step(self, event: str) -> bool:
        return self.feed([event.split(".")]) is None

    def feed(self, events) -> int | None:
        """Consume segment sequences in order; the index of the first one
        refused, or None when all are accepted."""
        alphabet, table, domain = self.alphabet, self.table, self.level_domain
        state, branch, pos, nxt, captures = (
            self.state, self.branch, self.pos, self.next, self.captures)
        refused = None
        for idx, event in enumerate(events):
            if event[0] not in alphabet or (
                domain is not None
                and any(seg.isdigit() and int(seg) > domain for seg in event[1:])
            ):
                refused = idx
                break
            if pos == len(branch):
                entry = table.get(state[0], _NO_ENTRIES).get(event[0])
                if entry is None:
                    refused = idx
                    break
                if entry.__class__ is tuple:
                    branch, nxt = entry
                else:
                    text, nxt = entry(state, domain)
                    branch = _templates(text)
                pos = 0
                captures = {}
            if not _fits(branch[pos], event, state, captures):
                refused = idx
                break
            pos += 1
            if pos == len(branch):
                state = nxt if nxt.__class__ is tuple else nxt(state, captures)
        self.state, self.branch, self.pos, self.next, self.captures = (
            state, branch, pos, nxt, captures)
        return refused


def make_recognizer(methodology: str, level_domain: int | None = None) -> Recognizer:
    if methodology in ("pdfd", "pbfd"):
        return Recognizer(methodology, level_domain or DEFAULT_LEVEL_DOMAIN)
    return Recognizer(methodology)


@dataclass
class ConformanceResult:
    accepted: bool
    events: list[str]
    reject_index: int | None = None
    reject_seq: int | None = None

    @property
    def first_illegal_event(self) -> str | None:
        return None if self.reject_index is None else self.events[self.reject_index]


def accept_events(
    methodology: str, events: list[str], level_domain: int | None = None
) -> ConformanceResult:
    rec = make_recognizer(methodology, level_domain)
    idx = rec.feed(name.split(".") for name in events)
    if idx is not None:
        return ConformanceResult(False, events, reject_index=idx)
    return ConformanceResult(True, events)


def check_csp_conformance(
    trace: Trace, methodology: str | None = None, level_domain: int | None = None
) -> Verdict:
    """Annotate the trace and run it through the methodology's recognizer.

    The whole trace is annotated first, so an annotation failure is
    reported even after an earlier illegal event."""
    methodology = methodology or trace.methodology
    name = f"csp-conformance[{methodology}]"
    if methodology in ("pdfd", "pbfd") and level_domain is None and trace.events:
        level_domain = int(trace.events[0].payload.get("L", DEFAULT_LEVEL_DOMAIN))
    try:
        annotated = _annotate(trace, methodology)
    except (KeyError, ValueError) as exc:
        return Verdict(name, False, f"annotation failed: {exc}")
    events = [event for _seq, group in annotated for event in group]
    idx = make_recognizer(methodology, level_domain).feed(events)
    if idx is None:
        return Verdict(name, True, f"{len(events)} events accepted")
    event = events[idx]
    for seq, group in annotated:
        if idx < len(group):
            break
        idx -= len(group)
    text = ".".join(event)
    if event[0] not in ALPHABETS[methodology]:
        return Verdict(name, False, f"event {text!r} outside alphabet", seq)
    return Verdict(name, False, f"illegal event {text!r}", seq)
