"""Rule tables and post-hoc trace monitors for the machines' guarantees.

Each machine has one rule table in ``RULE_TABLES``.  A row holds what is
known about one rule: the state families it fires from and moves to, its
kind, the measure's expected per-component deltas and, for a hybrid rule,
its firing condition (its guards and status effect, see ``RuleSpec``), and
its CSP expansion, compiled once into the row's ``render(event, L)``, which
``csp`` calls on each event.  ``HYBRID`` names the machines with a measure.

Checks provided, all pure over immutable traces:

* well-formedness: events chain and every rule is known for the methodology;
* rule legality: each event is held to its rule's row, read from the
  payload (its level, range end and attempt exact integers), the labels,
  the episode origin, the attempts spent, the statuses and the status
  changes, which must be the rule's effect;
* measure descent: the monitor computes M after each event from its target
  label, the episode origin, the folded status changes and the attempts
  spent; every non-terminal transition strictly decreases it, with
  per-component deltas matching the rule's pattern;
* bounded refinement: counted from the labels (a target S1R(j) spends one
  attempt at level j), no level spends more than the cap, and all together
  at most levels x cap;
* finalization invariance: no status change moves a FINALIZED node;
* deadlock freeness: static rule-table coverage plus bounded exhaustive
  enumeration of runs over all validation outcomes.

Well-formedness and measure descent are folds, ``WellFormedFold`` and
``DescentFold``: fed one event at a time, copied at a branch point, read
for a verdict at any point; the run enumerator forks them with the engine.
The status monitors read statuses through ``trace.StatusFold``, so they
accept both the delta-encoded format and full per-event snapshots.  The
episode origin is folded from the labels by ``_next_origin``.  Labels are
read by ``trace.parse_label`` into a table the monitors of one trace share
(``Trace.labels``; the enumerator's folds share one of their own), and
``_target`` refuses a target label outside the grammar.  The monitors read
the run parameters by ``measure.TraceContext.from_payload`` alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cache, partial
from operator import itemgetter, methodcaller
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .hierarchy import Hierarchy
from .jsondoc import exact_int, node_ids
from .measure import Measure, TraceContext, measure
from .scenario import Scenario, TraceOriginStrategy
from .trace import LabelTable, StatusFold, StatusFoldError, Trace, TraceEvent, parse_label


class Delta(enum.Enum):
    EQ = "="
    DOWN = "v"
    UP = "^"
    ANY = "*"
    NONINC = "<="


# -- event templates ------------------------------------------------------------------
#
# A rule's CSP expansion and a process table's branches share one template
# syntax: space-separated ``name.param[.param]``, split at import into tuples
# of segments.  In a rule row ``{field}`` reads the payload's ``p[field]``,
# ``{field?}`` its ``p.get(field)`` and ``{@}`` the index of the event's
# target label; in a process table ``{k}`` is the state's k-th value.  Each
# side compiles its templates once.


Templates = tuple[tuple[Any, ...], ...]


def split_templates(text: str, param: Callable[[str], Any]) -> Templates:
    """Split templates into tuples of segments; each ``{...}`` segment
    becomes ``param`` of its contents."""
    return tuple(
        tuple(param(seg[1:-1]) if seg[0] == "{" else seg for seg in template.split("."))
        for template in text.split()
    )


class LabelError(ValueError):
    """A state label outside the grammar ``trace.parse_label`` reads; the
    message names the rule and the label."""


def _target(ev: TraceEvent, labels: LabelTable | None = None) -> tuple[str, int | None]:
    """The family and index of the event's target label, from ``labels`` or
    else by ``parse_label``; one outside the grammar raises LabelError."""
    label = parse_label(ev.to_state) if labels is None else labels[ev.to_state]
    if label[1] == 0:
        raise LabelError(f"{ev.rule} target {ev.to_state} is not a state label")
    return label


@cache
def _field(name: str) -> Callable[[Any], Any]:
    """One getter per field name, so a renderer can tell repeated fields."""
    if name == "@":
        return _target
    return methodcaller("get", name[:-1]) if name[-1] == "?" else itemgetter(name)


class Pick(NamedTuple):
    """A rule's CSP expansion: the templates it may render, and
    ``fn(*renderers, event, L)``, which renders the events of the one it
    chooses; None for a plain templates string, whose one renderer is the
    row's.  L is the first event's level count, or None."""

    fn: Callable[..., list[tuple[str, ...]]] | None
    alternatives: tuple[Templates, ...]


def _pick(fn: Callable[..., Any] | None, *texts: str) -> Pick:
    return Pick(fn, tuple(split_templates(text, _field) for text in texts))


def _renderer(templates: Templates) -> Callable[[TraceEvent, Any], list[tuple[str, ...]]]:
    """Compile templates into ``render(event, L)``, which returns their events
    as tuples of ``str`` segments.  It reads each field once (``{@}`` from the
    event, others from its payload) in the order the templates first name
    it, so the first unreadable field is the one a left-to-right reading meets."""
    reads = {get: f"v{n}" for n, get in enumerate(dict.fromkeys(
        get for template in templates for get in template[1:]))}
    body = "".join(f"    {v} = str({f'g{v}(ev)[1]' if get is _target else f'g{v}(ev[4])'})\n"
                   for get, v in reads.items())
    events = ", ".join(f"({t[0]!r}, {''.join(reads[get] + ', ' for get in t[1:])})"
                       for t in templates)
    scope = {f"g{v}": get for get, v in reads.items()}
    exec(f"def render(ev, L):\n{body}    return [{events}]\n", scope)
    return scope["render"]


def _next_level(events, ev: TraceEvent, L: int | None):
    return events(ev._replace(payload=dict(
        ev.payload, next_level=int(ev.payload.get("level")) + 1)), L)


def _prev_level(events, ev: TraceEvent, L: int | None):
    return events(ev._replace(payload={"prev_level": ev.payload["level"] - 1}), L)


def _at_last_level(last, other, ev: TraceEvent, L: int | None):
    level = ev.payload.get("level")
    return (last if int(level) == (level if L is None else L) else other)(ev, L)


def _error_end(exhausted, from_s2, from_s3, other, ev: TraceEvent, L: int | None):
    """Exhaustion, or no refinement path after a failed level (S2) or
    bottom-up (S3) validation."""
    if ev.payload.get("reason") == "refinement_exhausted":
        return exhausted(ev, L)
    family = parse_label(ev.from_state)[0]
    return {"S2": from_s2, "S3": from_s3}.get(family, other)(ev, L)


def _repeated(refine, done, ev: TraceEvent, L: int | None):
    """One refine event per iteration after the first, then completion."""
    times = max(int(ev.payload.get("refine_iterations", 1)) - 1, 0)
    return refine(ev, L) * times + done(ev, L)


def _extended(extended, missing, ev: TraceEvent, L: int | None):
    return (extended if "new_node" in ev.payload else missing)(ev, L)


# -- descent checks -------------------------------------------------------------------


# The test each pattern puts on a component's value before and after a
# step, as an operator between the two; ANY puts none.
_DELTA_TESTS = {Delta.EQ: "==", Delta.DOWN: ">", Delta.UP: "<", Delta.NONINC: ">="}


def _descent_check(deltas: tuple[Delta, ...]) -> Callable[[Measure, Measure], str | None]:
    """Compile a step rule's descent check into one function of the measures
    ``pre`` and ``post`` around the step: the problem, or None.  M must fall
    strictly, then each component in turn must follow its pattern."""
    body = "".join(
        f"    if not pre[{i}] {_DELTA_TESTS[kind]} post[{i}]:\n"
        f"        return f'component k{i + 1} broke pattern {kind.value}: "
        f"{{pre[{i}]}} -> {{post[{i}]}}'\n"
        for i, kind in enumerate(deltas) if kind is not Delta.ANY)
    scope: dict[str, Any] = {}
    exec("def descent(pre, post):\n    if not post < pre:\n"
         "        return f'did not decrease M: {pre} -> {post}'\n"
         f"{body}    return None\n", scope)
    return scope["descent"]


_DECREASES = _descent_check(())


# -- rule tables: one per machine ------------------------------------------------------


# The paper's firing conditions as guards: ``guard(rule, level, p, ctx, statuses,
# spent)``, the problem or None, with the statuses after the event.
Guard = Callable[[str, int, dict, TraceContext, dict, dict], str | None]


def _k_gate(rule, level, p, ctx, statuses, spent):  # K_i is the level's size by default
    ids = ctx.level_ids(level)
    k_i, done = ctx.k_thresholds.get(level, len(ids)), sum(statuses.get(n) == 2 for n in ids)
    return f"advance from level {level} with {done} finalized < K={k_i}" if done < k_i else None


def _all_finalized(rule, level, p, ctx, statuses, spent):
    return f"{rule} with unfinalized nodes" if any(v != 2 for v in statuses.values()) else None


def _budget_spent(rule, level, p, ctx, statuses, spent):  # an exhaustion's level
    if p.get("reason") == "refinement_exhausted" and spent.get(level, 0) < ctx.r_max:
        return f"{rule} with remaining budget at level {level}"
    return None


def _on_level(holds: Callable[[int, TraceContext], bool], problem: str) -> Guard:
    """``problem``, naming the rule, when ``holds(level, ctx)`` is false."""
    return lambda rule, level, p, ctx, statuses, spent: (
        None if holds(level, ctx) else problem.format(rule=rule))


_AT_LAST = _on_level(lambda i, ctx: i == ctx.max_level, "{rule} before the last level")
_BELOW_LAST = _on_level(lambda i, ctx: i < ctx.max_level, "{rule} beyond the last level")


@dataclass(frozen=True)
class RuleSpec:
    """One rule: the state families it fires from and moves to, its kind,
    the measure's expected per-component deltas (hybrid steps) and its CSP
    expansion, a ``Pick`` or a templates string rendered from the event.

    A hybrid rule's firing condition is the rest of its row, which rule
    legality interprets: ``fails`` if it carries failing nodes (a backtrack
    or a dead end); its ``range`` role in an episode, "step" up the range or
    "close" at its end; its ``guards``; and its status ``effect`` on its
    level i, the status it raises each node of level i below it to, changing
    no other node: 1 marks the level in progress, 2 finalizes it, None
    changes nothing, and 0, the initial rule's, is a first map of all 0s.

    ``render(event, L)`` is the expansion compiled once (None for none).
    ``descent(pre, post)`` is a step rule's descent check, compiled once
    from its deltas: the problem with M moving from ``pre`` to ``post``
    after the rule id, or None (None itself for a terminal or initial
    rule, which need not descend)."""

    sources: tuple[str, ...]
    targets: tuple[str, ...]
    kind: str = "step"  # "step" | "terminal" | "initial"
    deltas: tuple[Delta, Delta, Delta, Delta] | None = None
    events: Pick | None = None
    fails: bool = False
    range: str | None = None  # "step" | "close"
    guards: tuple[Guard, ...] = ()
    effect: int | None = None
    render: Callable[[TraceEvent, int | None], list[tuple[str, ...]]] | None = field(
        init=False, repr=False, compare=False)
    descent: Callable[[Measure, Measure], str | None] | None = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.events, str):
            object.__setattr__(self, "events", _pick(None, self.events))
        fn, alternatives = self.events or (None, ())
        renders = [_renderer(templates) for templates in alternatives] or [None]
        object.__setattr__(self, "render", partial(fn, *renders) if fn else renders[0])
        descent = None
        if self.kind == "step":
            descent = _descent_check(self.deltas) if self.deltas else _DECREASES
        object.__setattr__(self, "descent", descent)


E, D, U, A, N = Delta.EQ, Delta.DOWN, Delta.UP, Delta.ANY, Delta.NONINC

PDFD_RULES: dict[str, RuleSpec] = {
    "PD1": RuleSpec(("S0",), ("S1",), "initial", effect=0,
                    events="load_tree_actual initialize_refinement_attempts_actual"),
    "PD2": RuleSpec(("S1",), ("S2",), deltas=(E, E, D, D), effect=1, events=(
        "determine_ki_actual.{@} process_level_actual.{@}")),
    "PD2a": RuleSpec(("S2",), ("S1R",), deltas=(E, D, U, A), fails=True, events=(
        "is_level_validation_failed.{level?} get_trace_origin_actual.{level?}.{@} "
        "can_attempt_refinement.{@} increment_refinement_attempts_actual.{@}")),
    "PD2b": RuleSpec(("S2",), ("S1",), deltas=(D, E, A, A), guards=(_k_gate,), effect=2, events=(
        "level_validation_successful.{level?} cond_threshold_met.{level?}")),
    "PD3": RuleSpec(("S1R",), ("S2R",), deltas=(E, E, D, D), events=(
        "determine_ki_actual.{level?} process_level_actual.{level?}")),
    "PD3a": RuleSpec(("S2R",), ("S1R",), deltas=(E, D, A, E), range="step", events=_pick(
        _next_level, "is_refactor_validation_successful.{level?}.{range_end} "
        "increment_refinement_attempts_actual.{next_level}")),
    "PD3b": RuleSpec(("S2R",), ("S2", "S3", "S4"), deltas=(E, E, N, A), range="close", events=(
        "is_refactor_validation_successful.{level?}.{range_end}")),
    "PD3c": RuleSpec(("S2R",), ("S1R",), deltas=(E, D, U, A), fails=True, events=(
        "refinement_failed_no_retry.{level?}.{range_end} can_attempt_refinement.{level?} "
        "increment_refinement_attempts_actual.{level?}")),
    "PD4": RuleSpec(("S2",), ("S3",), deltas=(D, E, D, A), guards=(_on_level(
        lambda i, ctx: i == ctx.max_level or not ctx.level_ids(i + 1),
        "bottom-up entry with a non-empty next level"),), effect=2, events=_pick(
        _at_last_level, "level_validation_successful.{level?} cond_threshold_met.{level?}",
        "level_validation_successful.{level?} cond_has_no_children.{level?}")),
    "PD4a": RuleSpec(("S3",), ("S3",), deltas=(E, E, E, D), events=(
        "finalize_subtrees_actual.{level?} bottom_up_validation_successful.{level?} "
        "cond_all_descendants_validated.{level?}")),
    "PD4b": RuleSpec(("S3",), ("S1R",), deltas=(E, D, U, A), fails=True, events=(
        "finalize_subtrees_actual.{level?} is_bottom_up_validation_failed.{level?} "
        "get_trace_origin_actual.{level?}.{@} can_attempt_refinement.{@} "
        "increment_refinement_attempts_actual.{@}")),
    "PD5": RuleSpec(("S3",), ("S4",), deltas=(E, E, D, A), events=(
        "finalize_subtrees_actual.{level?} bottom_up_validation_successful.{level?} "
        "cond_all_descendants_validated.{level?}")),
    "PD6": RuleSpec(("S4",), ("S4",), deltas=(E, E, E, D), guards=(_BELOW_LAST,), events=(
        "finalize_unprocessed_nodes_actual.{level?} top_down_validation_successful.{level?}")),
    "PD6a": RuleSpec(("S4",), ("S1R",), deltas=(E, D, U, A), fails=True, events=(
        "finalize_unprocessed_nodes_actual.{level?} "
        "is_top_down_validation_failed.{level?} get_trace_origin_actual.{level?}.{@} "
        "can_attempt_refinement.{@} increment_refinement_attempts_actual.{@}")),
    "PD6b": RuleSpec(("S4",), ("S5",), "terminal", fails=True, events=(
        "finalize_unprocessed_nodes_actual.{level?} is_top_down_validation_failed.{level?} "
        "no_refinement_path_available.{level?} terminate_with_error_actual")),
    "PD7": RuleSpec(("S4",), ("T",), "terminal", guards=(_all_finalized, _AT_LAST), events=(
        "finalize_unprocessed_nodes_actual.{level?} top_down_validation_successful.{level?} "
        "top_down_reaches_L5.{level?} terminate_successfully_actual")),
    # Exhaustion and path-less failures also end the validation phases.
    "PD8": RuleSpec(("S1R", "S2", "S2R", "S3"), ("S5",), "terminal", fails=True,
                    guards=(_budget_spent,), events=_pick(
        _error_end, "has_exhausted_rmax_for_level.{level?} terminate_with_error_actual",
        "is_level_validation_failed.{level?} no_refinement_path_available.{level?} "
        "terminate_with_error_actual",
        "finalize_subtrees_actual.{level?} is_bottom_up_validation_failed.{level?} "
        "no_refinement_path_available.{level?} terminate_with_error_actual",
        "no_refinement_path_available.{level?} terminate_with_error_actual")),
}

PBFD_RULES: dict[str, RuleSpec] = {
    "PB1": RuleSpec(("S0",), ("S1",), "initial", effect=0,
                    events="load_tree_actual initialize_refinement_attempts_actual"),
    "PB2": RuleSpec(("S1",), ("S2",), deltas=(E, E, D, D), effect=1, events=(
        "process_pattern_actual.{@} cond_not_all_validated.{@}")),
    "PB2a": RuleSpec(("S1",), ("S3",), deltas=(E, E, D, A), events=(
        "process_pattern_actual.{@} cond_all_validated.{@}")),
    "PB3": RuleSpec(("S2",), ("S1R",), deltas=(E, D, U, A), fails=True, events=(
        "validate_pattern_actual.{level?} cond_not_all_validated.{level?} "
        "cond_j_exists_for_i.{level?}.{@} cond_ref_attempts_lt_Rmax.{@} "
        "increment_refinement_attempts_actual.{@}")),
    "PB3a": RuleSpec(("S1R",), ("S2R",), deltas=(E, E, D, D), events=(
        "process_refinement_pattern_actual.{level?} cond_not_all_validated.{level?}")),
    "PB3a1": RuleSpec(("S2R",), ("S3R",), deltas=(E, E, D, E), events=(
        "validate_refinement_pattern_actual.{level?} cond_all_validated.{level?}")),
    "PB3a2": RuleSpec(("S2R",), ("S1R",), deltas=(E, D, U, A), fails=True, events=(
        "validate_refinement_pattern_actual.{level?} cond_not_all_validated.{level?} "
        "cond_ref_attempts_lt_Rmax.{level?} increment_refinement_attempts_actual.{level?}")),
    # No engine emits PB3a3 and no process event stands for it.
    "PB3a3": RuleSpec(("S2R",), ("S5",), "terminal"),
    "PB3b": RuleSpec(("S1R",), ("S3R",), deltas=(E, E, D, D), events=(
        "process_refinement_pattern_actual.{level?} cond_all_validated.{level?}")),
    "PB3c": RuleSpec(("S2",), ("S5",), "terminal", fails=True, events=(
        "validate_pattern_actual.{level?} cond_not_all_validated.{level?} "
        "cond_j_not_exists_for_i.{level?} terminate_failure_actual")),
    "PB4": RuleSpec(("S2",), ("S3",), deltas=(E, E, D, E), events=(
        "validate_pattern_actual.{level?} cond_all_validated.{level?}")),
    "PB4a": RuleSpec(("S3",), ("S1",), deltas=(D, E, A, A), guards=(
        _on_level(lambda i, ctx: i < ctx.max_level, "pattern derivation at the last level"),
        _on_level(lambda i, ctx: ctx.level_ids(i + 1), "pattern derivation with no children"),
    ), effect=2, events=(
        "resolve_depth_actual.{level?} cond_i_lt_L.{level?} cond_pattern_next_nonempty.{level?}")),
    "PB4b": RuleSpec(("S3",), ("S4",), deltas=(D, E, D, A), effect=2, events=_pick(
        _at_last_level, "resolve_depth_actual.{level?} cond_i_eq_L.{level?}",
        "resolve_depth_actual.{level?} cond_pattern_next_empty.{level?}")),
    "PB5": RuleSpec(("S3R",), ("S1R",), deltas=(E, D, A, E), range="step", events=_pick(
        _next_level, "resolve_refinement_depth_actual.{level?} cond_j_lt_i.{level?}.{range_end} "
        "increment_refinement_attempts_actual.{next_level}")),
    "PB6": RuleSpec(("S3R",), ("S3", "S4"), deltas=(E, E, N, A), range="close", events=(
        "resolve_refinement_depth_actual.{level?} cond_j_eq_i.{level?}.{range_end}")),
    "PB7": RuleSpec(("S4",), ("S4",), deltas=(E, E, E, D), guards=(_BELOW_LAST,), events=(
        "finalize_pattern_actual.{level?} cond_all_processed.{level?} cond_i_lt_L.{level?}")),
    "PB7a": RuleSpec(("S4",), ("S1R",), deltas=(E, D, U, A), fails=True, events=(
        "finalize_pattern_actual.{level?} cond_not_all_processed.{level?} "
        "cond_trace_origin_exists_for_unprocessed.{level?}.{@} cond_ref_attempts_lt_Rmax.{@} "
        "increment_refinement_attempts_actual.{@}")),
    "PB7b": RuleSpec(("S4",), ("S5",), "terminal", fails=True, events=(
        "finalize_pattern_actual.{level?} cond_not_all_processed.{level?} "
        "cond_trace_origin_not_exists_for_unprocessed.{level?} terminate_failure_actual")),
    "PB8": RuleSpec(("S4",), ("T",), "terminal", guards=(_all_finalized, _AT_LAST), events=(
        "finalize_pattern_actual.{level?} cond_all_processed.{level?} cond_i_eq_L.{level?} "
        "terminate_success_actual")),
    "PB9": RuleSpec(("S1R",), ("S5",), "terminal", guards=(_budget_spent,), events=(
        "cond_ref_attempts_ge_Rmax.{level?} terminate_failure_actual")),
}

RULE_TABLES: dict[str, dict[str, RuleSpec]] = {
    "pdfd": PDFD_RULES,
    "pbfd": PBFD_RULES,
    "dad": {
        "DA1": RuleSpec(("S0",), ("S1",), "initial",
                        events="load_dag_actual initialize_queue_actual.{root}"),
        "DA2": RuleSpec(("S1",), ("S2",), events=(
            "queue_not_empty dequeue_actual.{node} process_actual.{node} "
            "validate_dependencies_actual.{node}")),
        "DA3": RuleSpec(("S2",), ("S1",), events=(
            "all_dependencies_processed.{node} generate_children_actual.{node} "
            "enqueue_nodes_actual")),
        "DA4": RuleSpec(("S2",), ("S3",), events=_pick(
            _extended, "missing_dependency.{node} extend_graph_actual.{node}.{new_node}",
            "missing_dependency.{node}")),
        "DA5": RuleSpec(("S3",), ("S1",), events="enqueue_nodes_actual"),
        "DA6": RuleSpec(("S1",), ("T",), "terminal", events=(
            "all_nodes_processed perform_final_validation_actual terminate_successfully_actual")),
    },
    "dfd": {
        "DF1": RuleSpec(("S0",), ("S1",), "initial",
                        events="load_tree_actual initialize_stack_actual.{root}"),
        "DF2": RuleSpec(("S1",), ("S1",), events=(
            "stack_not_empty.{node} dequeue_actual.{node} process_actual.{node} "
            "is_non_leaf.{node} process_child_actual.{node} push_children_actual.{node}")),
        "DF3": RuleSpec(("S1",), ("S2",), events=(
            "stack_not_empty.{node} dequeue_actual.{node} process_actual.{node} "
            "is_leaf.{node} set_backtrack_point_actual.{node}")),
        "DF4": RuleSpec(("S2",), ("S1",), events=(
            "has_unprocessed_sibling.{backtrack_point} "
            "get_unprocessed_sibling_actual.{backtrack_point} "
            "push_sibling_actual.{backtrack_point}")),
        "DF5": RuleSpec(("S2",), ("S3",), events=(
            "no_unprocessed_sibling.{subtree_root} validate_subtree_actual.{subtree_root}")),
        "DF6": RuleSpec(("S3",), ("S2",), events=(
            "subtree_validated.{subtree_root} backtrack_to_actual.{to}")),
        "DF7": RuleSpec(("S3",), ("T",), "terminal", events=(
            "no_more_backtrack_points_above.{backtrack_point} terminate_successfully_actual")),
    },
    "bfd": {
        "BF1": RuleSpec(("S0",), ("S1",), "initial",
                        events="load_project_actual initialize_queue_actual.{root}"),
        "BF2": RuleSpec(("S1",), ("S1",), events=(
            "dequeue_actual.{node} develop_actual.{node} enqueue_children_actual.{node}")),
        "BF3": RuleSpec(("S1",), ("S2",), events=(
            "current_level_processed_actual validate_level_actual.{level}")),
        "BF4": RuleSpec(("S2",), ("S1",), events=_pick(
            _prev_level, "not_last_level_actual.{prev_level} advance_level_actual.{prev_level}")),
        "BF5": RuleSpec(("S2",), ("T",), "terminal",
                        events="last_level_actual.{levels} terminate_successfully_actual"),
    },
    "cdd": {
        "CD1": RuleSpec(("S0",), ("S1",), "initial",
                        events="load_graph_actual initialize_dependencies_actual"),
        "CD2": RuleSpec(("S1",), ("S1",), events="process_node_actual.{component}"),
        "CD3a": RuleSpec(("S1",), ("S2",), events=(
            "test_failed.{component} refine_component_actual.{component}")),
        "CD3b": RuleSpec(("S1",), ("S2",), events=(
            "feedback_cycle_detected.{component} trigger_revision_actual.{component}")),
        "CD4": RuleSpec(("S2",), ("S1",), events=_pick(
            _repeated, "refine_component_actual.{component}",
            "refactor_complete_actual.{component}")),
        "CD5": RuleSpec(("S1",), ("S3",), events=(
            "all_components_written_actual.{increment} validate_increment_actual.{increment}")),
        "CD6": RuleSpec(("S3",), ("S2",), events=(
            "feedback_received_actual identify_flaw_actual flaw_identified_actual.{component}")),
        "CD7": RuleSpec(("S3",), ("T",), "terminal", events=(
            "all_increments_validated_actual final_deployment_actual "
            "terminate_successfully_actual")),
    },
    "tle": {
        "TLE1": RuleSpec(("start",), ("S0",), "initial", events="start_actual"),
        "TLE2": RuleSpec(("S0",), ("S1",),
                         events="load_page_actual parent_nodes_received_actual"),
        "TLE3": RuleSpec(("S1",), ("S2",), events="resolve_grandparent_actual"),
        "TLE4": RuleSpec(("S2",), ("S3",), events="load_grandparent_table_actual"),
        "TLE5": RuleSpec(("S3",), ("S4",),
                         events="resolve_child_actual preset_child_status_actual"),
        "TLE6": RuleSpec(("S4",), ("S5",), events="update_bitmask_actual"),
        "TLE7": RuleSpec(("S5",), ("S0",), events="more_pages_exist_actual"),
        # A run with zero pages finalizes straight from the waiting state.
        "TLE8": RuleSpec(("S5", "S0"), ("S6",), events="no_more_pages_exist_actual"),
        "TLE9": RuleSpec(("S6",), ("end",), "terminal", events="finalize_process_actual"),
    },
}

# The machines with a measure: rule legality, measure descent, bounded
# refinement, finalization and deadlock freeness apply to their traces.
HYBRID = frozenset({"pdfd", "pbfd"})


@dataclass
class Verdict:
    name: str
    ok: bool
    detail: str = ""
    first_violation_seq: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    def line(self) -> str:
        if self.ok:
            return f"PASS {self.name}"
        at = "" if self.first_violation_seq is None else f"event {self.first_violation_seq}: "
        return f"FAIL {self.name} ({at}{self.detail})"


# What reading a forged payload value raises: int("x"), a list for a map, a missing key.
UNREADABLE = (AttributeError, KeyError, TypeError, ValueError)


def _unreadable(name: str, ev: TraceEvent, exc: Exception) -> Verdict:
    detail = str(exc) if isinstance(exc, LabelError) else f"{ev.rule} payload unreadable: {exc}"
    return Verdict(name, False, detail, ev.seq)


def _context(name: str, trace: Trace, methodology: str | None) -> TraceContext | Verdict:
    """The run parameters of the first event, read by ``TraceContext.from_payload``,
    or a FAIL naming that event when they are unreadable.  An empty trace
    raises ValueError."""
    if not trace.events:
        raise ValueError("empty trace")
    first = trace.events[0]
    try:
        return TraceContext.from_payload(methodology or trace.methodology, first.payload)
    except UNREADABLE as exc:
        return _unreadable(name, first, exc)


def check_well_formed(trace: Trace, methodology: str | None = None) -> Verdict:
    """Chaining plus rule-id membership and state-family agreement."""
    fold = WellFormedFold(methodology or trace.methodology, trace.labels)
    fold.feed(trace.events)
    return fold.verdict()


_START = object()  # the state before the first event


class WellFormedFold:
    """``check_well_formed`` as a fold: ``feed`` it the next events of a
    trace, in order, ``copy`` it at a branch point, read its ``verdict`` at
    any point.  It reads each label's family from ``labels``, a table of its
    own unless one is passed; its copies share it.

    A broken chain anywhere wins over an earlier rule problem, so after the
    first rule problem the fold still follows the chain."""

    __slots__ = ("methodology", "rules", "labels", "_prev", "_broken", "_problem")

    def __init__(self, methodology: str, labels: LabelTable | None = None):
        self.methodology = methodology
        self.rules = RULE_TABLES.get(methodology)
        self.labels = LabelTable() if labels is None else labels
        self._prev: Any = _START  # the last event's to_state
        self._broken: int | None = None  # seq of the first chain break
        self._problem: tuple[str, int] | None = None  # the first rule problem

    def copy(self) -> "WellFormedFold":
        other = WellFormedFold.__new__(WellFormedFold)
        other.methodology, other.rules, other.labels = self.methodology, self.rules, self.labels
        other._prev, other._broken, other._problem = self._prev, self._broken, self._problem
        return other

    def feed(self, events: Iterable[TraceEvent]) -> None:
        rules = self.rules
        if self._broken is not None or rules is None:
            return
        prev, problem, labels = self._prev, self._problem, self.labels
        for ev in events:
            if ev.from_state != prev and prev is not _START:
                self._broken = ev.seq
                return
            prev = ev.to_state
            if problem is not None:
                continue
            spec = rules.get(ev.rule)
            if spec is None:
                problem = (f"unknown rule {ev.rule}", ev.seq)
                continue
            src = labels[ev.from_state][0]
            if src not in spec.sources:
                problem = (f"{ev.rule} fired from {src}", ev.seq)
            elif labels[prev][0] not in spec.targets:
                problem = (f"{ev.rule} targeted {prev}", ev.seq)
        self._prev, self._problem = prev, problem

    @property
    def failed(self) -> bool:
        """Whether ``verdict()`` is a FAIL, without building it."""
        return self.rules is None or self._broken is not None or self._problem is not None

    def verdict(self) -> Verdict:
        name = "well-formed"
        if self.rules is None:
            return Verdict(name, False, f"unknown methodology {self.methodology!r}")
        if self._broken is not None:
            return Verdict(name, False, "state chain broken", self._broken)
        if self._problem is not None:
            return Verdict(name, False, *self._problem)
        return Verdict(name, True)


# -- rule legality against payloads and folded statuses --------------------------


_REFINING = ("S1R", "S2R", "S3R")


def _next_origin(
    origin: tuple[str, int | None] | None, ev: TraceEvent, labels: LabelTable
) -> tuple[str, int | None] | None:
    """The episode origin after ``ev``, whose target is of a refinement
    family: entering one from another family records the source label's
    family and index, the phase and level whose failure the episode
    repairs.  (A target outside those families clears the origin; the
    callers test that before the call.)"""
    source = labels[ev.from_state]
    if source[0] in _REFINING:
        return origin
    if source[1] == 0:
        raise LabelError(f"{ev.rule} source {ev.from_state} is not a state label")
    return source


def check_rule_legality(trace: Trace, methodology: str | None = None) -> Verdict:
    """Hold each hybrid event to its rule's row."""
    name = "rule-legality"
    methodology = methodology or trace.methodology
    if methodology not in HYBRID:
        return Verdict(name, True, "basic machine: covered by well-formedness")
    v = check_well_formed(trace, methodology)
    if not v.ok:
        return Verdict(name, False, v.detail, v.first_violation_seq)
    ctx = _context(name, trace, methodology)
    if isinstance(ctx, Verdict):
        return ctx
    rules, labels, fold = RULE_TABLES[methodology], trace.labels, StatusFold()
    spent, queries, origin = {}, {}, None
    for ev in trace.events:
        try:
            prior = fold.step(ev)
        except StatusFoldError as err:
            return Verdict(name, False, err.detail, err.seq)
        try:
            family, index = _target(ev, labels)
            problem = _legality_problem(ev, rules[ev.rule], family, index,
                                        labels[ev.from_state][0], origin, spent, queries,
                                        prior, fold.statuses, ctx)
            origin = _next_origin(origin, ev, labels) if family in _REFINING else None
        except UNREADABLE as exc:
            return _unreadable(name, ev, exc)
        if problem:
            return Verdict(name, False, problem, ev.seq)
    return Verdict(name, True)


def _legality_problem(
    ev: TraceEvent, spec: RuleSpec, family: str, index: int | None, source: str,
    origin: tuple[str, int | None] | None, spent: dict[int, int],
    queries: dict[tuple[str, int], int], prior: dict[int, int | None],
    statuses: dict[int, int], ctx: TraceContext) -> str | None:
    """The problem with ``ev``, a ``spec`` event from the family ``source``
    to ``family(index)`` in the episode of ``origin``, or None.  An S1R entry
    adds to ``spent``, an ``attempt`` to ``queries`` at (source, level).
    Last, the status changes ``prior``, with ``statuses`` after them, are
    held to the row's effect."""
    rule, p = ev.rule, ev.payload
    failing = p.get("failing", [])
    if failing or failing.__class__ is not list:
        node_ids(failing, "failing")  # 4.0 or True would pass the set test below
    if index is None and family not in ("S5", "T"):
        return f"{rule} target {ev.to_state} names no level"
    # A rule that fires from S0 or S1, its one source, carries no level: its
    # level is its target's index.
    level = index if spec.sources[0] in ("S0", "S1") else exact_int(p["level"], "level")
    range_end = (exact_int(p["range_end"], "range_end")
                 if "range_end" in p or spec.range else None)
    if family == "S1R":
        spent[index] = spent.get(index, 0) + 1
        if spent[index] > ctx.r_max:
            return f"{rule} exceeded the attempt cap"
    if failing:
        if not set(failing) <= set(ctx.level_ids(level)):
            return f"{rule} failing nodes outside level {level}"
        if not spec.fails:
            return f"{rule} with failing nodes"
    if range_end is not None and (origin is None or range_end != origin[1]):
        return f"{rule} range_end {range_end} is not the episode origin"
    if spec.fails:
        if not failing and p.get("reason") != "refinement_exhausted":
            return f"{rule} without failing nodes"
        if family == "S1R" and not 1 <= index <= level:
            return f"{rule} origin {index} outside [1, {level}]"
    if spec.range == "step" and not index <= range_end:
        return f"{rule} progressed past the episode range"
    if spec.range == "close" and level != range_end:
        return f"{rule} before the episode range was complete"
    for guard in spec.guards:
        problem = guard(rule, level, p, ctx, statuses, spent)
        if problem:
            return problem
    if "attempt" in p:
        n = queries[source, level] = queries.get((source, level), 0) + 1
        if exact_int(p["attempt"], "attempt") != n:
            return f"{rule} attempt {p['attempt']} is not query {n} at {source}({level})"
    effect = spec.effect
    if effect == 0:  # the first map
        n = next((n for n, s in statuses.items() if s), None)
        return None if n is None else f"{rule} first map has node {n} at status {statuses[n]}"
    # Each change, then each node of the level of a rule that marks or finalizes it.
    ids = ctx.level_ids(level) if effect else ()
    members = set(ids)
    for n, old in prior.items():
        new = statuses.get(n)
        if effect is None or old is None or not old < effect == new:
            return f"{rule} moved node {n} from {old} to {new}"
        if n not in members:
            return f"{rule} moved node {n} outside level {level}"
    for n in ids:
        if statuses.get(n, 0) < effect:
            return f"{rule} left node {n} of level {level} at status {statuses.get(n, 0)}"
    return None


# -- measure descent --------------------------------------------------------------


def check_measure_descent(trace: Trace, methodology: str | None = None) -> Verdict:
    """Strict lexicographic descent of the monitor's own M on every
    non-terminal transition, with per-component deltas matching the rule's
    expected pattern.  An empty hybrid trace raises ValueError."""
    fold = DescentFold(methodology or trace.methodology, trace.labels)
    fold.feed(trace.events)
    return fold.verdict()


class DescentFold:
    """``check_measure_descent`` as a fold, fed, copied and read like
    ``WellFormedFold``.

    The fold computes M after each event from the event's target label and
    its own counts: the unfinalized nodes, from the folded status changes;
    the attempts spent, from the S1R targets; and the episode origin, from
    the labels.  It never trusts the engine.
    ``measure`` is M after the last event fed (None before the first).
    The first event gives the run parameters; the first failure settles the
    verdict.  Labels are parsed into ``labels`` as for ``WellFormedFold``.
    """

    __slots__ = ("methodology", "rules", "labels", "_ctx", "_statuses", "_unfinalized",
                 "_spent", "_origin", "measure", "_failure")

    def __init__(self, methodology: str, labels: LabelTable | None = None):
        self.methodology = methodology
        self.rules = RULE_TABLES[methodology] if methodology in HYBRID else None
        self.labels = LabelTable() if labels is None else labels
        self._ctx: TraceContext | None = None
        self._statuses = StatusFold()
        self._unfinalized = self._spent = 0
        self._origin: tuple[str, int | None] | None = None
        self.measure: Measure | None = None
        self._failure: Verdict | None = None

    @property
    def failed(self) -> bool:
        """Whether ``verdict()`` is a FAIL, without building it."""
        return self._failure is not None

    def copy(self) -> "DescentFold":
        other = DescentFold.__new__(DescentFold)
        other.methodology, other.rules, other.labels = self.methodology, self.rules, self.labels
        other._ctx, other._statuses = self._ctx, self._statuses.copy()
        other._unfinalized, other._spent = self._unfinalized, self._spent
        other._origin, other.measure, other._failure = self._origin, self.measure, self._failure
        return other

    def feed(self, events: Iterable[TraceEvent]) -> None:
        rules = self.rules
        if self._failure is not None or rules is None:
            return
        self._failure = self._fold(rules, events)

    def _fold(self, rules: dict[str, RuleSpec], events: Iterable[TraceEvent]) -> Verdict | None:
        name = "measure-descent"
        ctx, unfinalized, spent, origin = self._ctx, self._unfinalized, self._spent, self._origin
        prev, fold, labels = self.measure, self._statuses, self.labels
        for ev in events:
            if ctx is None:
                try:
                    ctx = self._ctx = TraceContext.from_payload(self.methodology, ev.payload)
                except UNREADABLE as exc:
                    return _unreadable(name, ev, exc)
            try:
                prior = fold.step(ev)
            except StatusFoldError as err:
                return Verdict(name, False, err.detail, err.seq)
            if prior:
                statuses = fold.statuses
                for n, old in prior.items():
                    new = statuses.get(n)
                    unfinalized += (new is not None and new != 2) - (old is not None and old != 2)
            spec = rules.get(ev.rule)
            if spec is None:
                return Verdict(name, False, f"unknown rule {ev.rule}", ev.seq)
            try:
                family, index = _target(ev, labels)
                spent += family == "S1R"
                origin = _next_origin(origin, ev, labels) if family in _REFINING else None
                m = measure(ctx, family, index, origin and origin[1], unfinalized, spent)
            except UNREADABLE as exc:
                return _unreadable(name, ev, exc)
            descent = spec.descent
            if descent is not None:
                problem = "has no measure before it" if prev is None else descent(prev, m)
                if problem is not None:
                    return Verdict(name, False, f"{ev.rule} {problem}", ev.seq)
            prev = m
        self._unfinalized, self._spent, self._origin, self.measure = (
            unfinalized, spent, origin, prev)
        return None

    def verdict(self) -> Verdict:
        name = "measure-descent"
        if self.rules is None:
            return Verdict(name, True, "no measure defined for basic machines")
        if self._failure is not None:
            return self._failure
        if self._ctx is None:
            raise ValueError("empty trace")
        return Verdict(name, True)


# -- bounded refinement -------------------------------------------------------------


def check_bounded_refinement(trace: Trace, r_max: int | None = None) -> Verdict:
    name = "bounded-refinement"
    ctx = _context(name, trace, None)
    if isinstance(ctx, Verdict):
        return ctx
    cap = r_max if r_max is not None else ctx.r_max
    spent: dict[int, int] = {}
    labels = trace.labels
    for ev in trace.events:
        try:
            family, j = _target(ev, labels)
        except UNREADABLE as exc:
            return _unreadable(name, ev, exc)
        if family == "S1R":
            c = spent[j] = spent.get(j, 0) + 1
            if c > cap:
                return Verdict(name, False, f"attempts[{j}]={c} exceeds cap {cap}", ev.seq)
    total = sum(spent.values())
    if total > ctx.max_level * cap:
        detail = f"total increments {total} exceed levels x cap = {ctx.max_level * cap}"
        return Verdict(name, False, detail, trace.events[-1].seq)
    return Verdict(name, True, f"max total increments {total}")


# -- finalization invariance -----------------------------------------------------------


def check_finalization(trace: Trace) -> Verdict:
    """Once a node's committed status is FINALIZED, no later event may change
    it (a full status map that drops the node changes it too)."""
    name = "finalization-invariance"
    finalized = 0
    fold = StatusFold()
    for ev in trace.events:
        try:
            prior = fold.step(ev)
        except StatusFoldError as err:
            return Verdict(name, False, err.detail, err.seq)
        if prior:
            statuses = fold.statuses
            for n, old in prior.items():
                if old == 2:
                    return Verdict(name, False, f"node {n} left FINALIZED", ev.seq)
                if statuses.get(n) == 2:
                    finalized += 1
    return Verdict(name, True, f"{finalized} nodes finalized")


# -- deadlock freeness --------------------------------------------------------------


# Forks are not kept past this many validation queries in one run.
_MAX_FORK_DEPTH = 64


def enumerate_runs(
    methodology: str, hierarchy: Hierarchy, base: Scenario, folds: tuple = ()
) -> Iterator[tuple[Any, tuple]]:
    """Every run of a hybrid machine over the pass and fail answers to its
    validation queries, bounded, each distinct run once.

    The walk visits the run tree once.  A run answers its queries pass; at
    each of its first ``_MAX_FORK_DEPTH`` queries not yet forked it keeps a
    fork of the engine, taken before that step, and of each fold.  The fork
    fails that query (every candidate fails) and goes on from there.  The
    last fork kept runs next, so runs come in depth-first order, the run
    that passes everything first.  Every event is emitted once, and each
    fold is fed it once, after it is emitted: the events since the last
    feed, at each fork and at the end of each run.

    Only ``base``'s budget, thresholds and origin strategy are used.  Yields
    ``(result, folds)`` as each run reaches T or S5: its ``RunResult`` and
    its own ``folds`` (each with ``feed`` and ``copy``), fed every event of
    the run.  The folds passed in are the first run's, so they are consumed.
    A basic machine raises ValueError here, before the first run."""
    from .hybrid_machines import start_run

    sc = Scenario(r_max=base.r_max, k_thresholds=dict(base.k_thresholds),
                  trace_origin=base.trace_origin)
    walk = _walk(start_run(methodology, hierarchy, sc), tuple(folds))
    return ((eng.result(), folds) for eng, folds in walk)


def _walk(root, root_folds: tuple) -> Iterator[tuple[Any, tuple]]:
    """``enumerate_runs`` with each finished run's engine in place of its
    ``RunResult``."""
    # The run being stepped: its engine, folds, queries so far, whether its
    # next query is the one its fork was kept to fail, and the events fed.
    eng, folds, queries, fail, fed = root, root_folds, 0, False, 0
    copy = methodcaller("copy")

    def catch_up() -> None:
        nonlocal fed
        events = eng.trace.events
        if fed < len(events):
            new = events[fed:]
            for fold in folds:
                fold.feed(new)
            fed = len(events)

    def answer(phase_tag, index, attempt, candidates):
        nonlocal queries, fail
        query, queries = queries, queries + 1
        if fail:
            fail = False
            return candidates
        if query < _MAX_FORK_DEPTH:
            catch_up()
            forks.append((eng.fork(), tuple(map(copy, folds)), query, True, fed))
        return ()

    root.answer = answer  # forks share it
    forks = [(root, root_folds, 0, False, 0)]
    while forks:
        eng, folds, queries, fail, fed = forks.pop()
        while not eng.done:
            eng.step()
        catch_up()
        yield eng, folds


def check_deadlock_freeness(
    methodology: str,
    hierarchy: Hierarchy | None = None,
    r_max: int = 1,
) -> Verdict:
    """Static rule coverage plus bounded exhaustive run enumeration.

    Statically, every state family a rule moves to needs an outgoing rule,
    unless it is final: the target of a terminal rule (T and S5, or the tle
    process's end).  When a hierarchy is supplied, all validation-outcome
    assignments are enumerated and every run must end in T or S5 with a
    well-formed, measure-decreasing trace; the first run in enumeration
    order that is not gives the verdict.  An unknown methodology is a FAIL;
    a basic machine with a hierarchy raises ``start_run``'s ValueError."""
    name = f"deadlock-freeness[{methodology}]"
    rules = RULE_TABLES.get(methodology)
    if rules is None:
        return Verdict(name, False, f"unknown methodology {methodology!r}")
    sources = {src for s in rules.values() for src in s.sources}
    final = {t for s in rules.values() if s.kind == "terminal" for t in s.targets}
    stuck = sorted({t for s in rules.values() for t in s.targets} - sources - final)
    if stuck:
        return Verdict(name, False, f"state family {stuck[0]} has no outgoing rule")
    if hierarchy is None:
        return Verdict(name, True, "static rule coverage only")
    from .hybrid_machines import start_run

    sc = Scenario(r_max=r_max, trace_origin=TraceOriginStrategy.fixed(1))
    labels = LabelTable()
    monitors = (WellFormedFold(methodology, labels), DescentFold(methodology, labels))
    n = 0
    for _eng, folds in _walk(start_run(methodology, hierarchy, sc), monitors):
        n += 1
        for monitor in folds:
            if monitor.failed:
                v = monitor.verdict()
                return Verdict(name, False, f"enumerated run: {v.detail}", v.first_violation_seq)
    return Verdict(name, True, f"{n} enumerated runs, all reached T or S5")


def run_all_checks(
    trace: Trace, methodology: str | None = None, r_max: int | None = None
) -> list[Verdict]:
    methodology = methodology or trace.methodology
    out = [check_well_formed(trace, methodology)]
    if methodology in HYBRID:
        out.append(check_rule_legality(trace, methodology))
        out.append(check_measure_descent(trace, methodology))
        out.append(check_bounded_refinement(trace, r_max))
        out.append(check_finalization(trace))
    return out
