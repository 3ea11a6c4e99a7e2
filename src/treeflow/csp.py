"""Event-level conformance: table-driven recognizers over the rules' events.

Each trace rule expands into a short sequence of named events, which the
``render`` compiled into its row of ``verify.RULE_TABLES`` builds from the
event, reading a target label and the level count L as the monitors do.
Each methodology's process definitions are one transition table, written
here and compiled at import into match plans (``_plans``), and its
alphabet is the set of event names the table can consume.  A recognizer
walks the table and accepts exactly the event sequences the process
allows, prefix-closed; rejection reports the first illegal event.
The tables describe the process definitions, not the engines, and the
alphabets come from the tables, not from the rule rows, so the engines and
the annotations are checked against something they do not own.  Events
serialize as ``name.param[.param]``; level parameters are bounded by the
recognizer's level domain: a trace's level count L, read by
``_level_count`` (the one reader of a run parameter outside
``measure.TraceContext.from_payload``), or 5 without one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable

from .jsondoc import exact_int
from .trace import Trace
from .verify import HYBRID, RULE_TABLES, UNREADABLE, LabelError, Verdict, split_templates

DEFAULT_LEVEL_DOMAIN = 5


# -- annotation: engine rule -> events, each a tuple of its str segments -------------


def annotate_trace(trace: Trace, methodology: str | None = None) -> list[tuple[int, str]]:
    """Expand each trace event into (seq, csp_event) pairs."""
    renders = _Renders(methodology or trace.methodology)
    L = _level_count(trace)
    return [(ev.seq, ".".join(event)) for ev in trace for event in renders[ev.rule](ev, L)]


def _level_count(trace: Trace) -> int | None:
    """The first event's level count L, an exact integer, or None if it has none."""
    if trace.events and "L" in trace.events[0].payload:
        return exact_int(trace.events[0].payload["L"], "L")
    return None


class _Renders(dict):
    """Each rule's ``render(event, L)``, looked up in its row once per trace;
    a rule with no row or no expansion raises ValueError."""

    def __init__(self, methodology: str):
        super().__init__((r, s.render) for r, s in RULE_TABLES[methodology].items() if s.render)

    def __missing__(self, rule: str):
        raise ValueError(f"unknown rule {rule}")


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
#     *     any one segment without a dot
#
# ``next`` is the state once the branch is consumed: a state tuple, or a
# function ``(state, captures, L) -> state`` whose captures are keyed "$x"
# and whose L is the level domain; a function that returns None refuses the
# branch's last event.  Whatever depends on the state's values beyond
# ``{k}`` lives in that function: where a later event depends on them, the
# function returns an intermediate kind whose one branch consumes that
# event.  A kind with no branch for an event, like STOP, refuses it.

Plan = tuple[str, int, Any, Any, int, Any, Any, Any]
Entry = tuple[tuple[Plan, ...], Any]
ANY = "*"
START = ("start",)
STOP = ("STOP",)


def _table(spec: dict[str, list]) -> dict[str, dict[str, Entry]]:
    """Index each kind's branches by the event that selects them; STOP has none."""
    table: dict[str, dict[str, Entry]] = {STOP[0]: {}}
    for kind, branches in spec.items():
        entries = table[kind] = {}
        for text, nxt in branches:
            plans = _plans(split_templates(text, int))
            event = plans[0][0]
            if event in entries:
                raise ValueError(f"two {kind} branches start with {event}")
            entries[event] = (plans, nxt)
    return table


def _plans(templates: tuple[tuple[Any, ...], ...]) -> tuple[Plan, ...]:
    """Each template of a branch as a match plan: its name and segment
    count; getters of its ``{k}`` segments and of the state values they
    must equal (None for none); the index of its one wildcard or new
    capture (0 for none), which must hold no dot, and that capture; and
    getters of the segments that repeat a capture and of its value."""
    bound: set[str | None] = set()
    plans = []
    for name, *params in templates:
        state, free, capture, repeated = [], 0, None, []
        for k, want in enumerate(params, 1):
            if want.__class__ is int:
                state.append((k, want))
            elif want in bound:
                repeated.append((k, want))
            elif (want == ANY or want[0] == "$") and not free:
                free, capture = k, None if want == ANY else want
                bound.add(capture)
            else:
                raise ValueError(f"{name}: unsupported parameter {want!r}")
        plans.append((name, len(params) + 1, *_getters(state), free, capture,
                      *_getters(repeated)))
    return tuple(plans)


def _getters(pairs: list[tuple[int, Any]]) -> tuple[Any, Any]:
    """Getters of the event segments and of the values they must equal."""
    return tuple(itemgetter(*side) for side in zip(*pairs)) if pairs else (None, None)


def _as(kind: str) -> Callable[[tuple, dict, Any], tuple]:
    """Next state: the same values under another kind."""
    return lambda s, _b, _L: (kind, *s[1:])


def _next_level(kind: str) -> Callable[[tuple, dict, Any], tuple]:
    return lambda s, _b, _L: (kind, _inc(s[1]))


def _refine(kind: str, origin: str) -> Callable[[tuple, dict, Any], tuple | None]:
    """Next state after a failure at level i traced back to the captured
    level $j: refine from j up to i, then resume in the origin phase.  A
    captured level that is not an integer refuses the event (None)."""

    def nxt(s: tuple, b: dict, _L: Any) -> tuple | None:
        try:
            j = int(b["$j"])
        except ValueError:
            return None
        return (kind, str(j), s[1], origin)

    return nxt


def _inc(value: str) -> str:
    return str(int(value) + 1)


def _pdfd_threshold_met(s: tuple, _b: dict, L: int) -> tuple:
    return ("S1", _inc(s[1])) if int(s[1]) < L else ("S3", s[1])


def _pdfd_refactor_checked(s: tuple, _b: dict, _L: int) -> tuple:
    _, j, i, origin = s
    return ("S2Rnext", _inc(j), i, origin) if int(j) < int(i) else (origin, i)


def _pdfd_bottom_up_ok(s: tuple, _b: dict, _L: int) -> tuple:
    i = int(s[1])
    return ("S4", "1") if i <= 2 else ("S3", str(i - 1))


def _pdfd_top_down_ok(s: tuple, _b: dict, L: int) -> tuple:
    return ("S4last", s[1]) if int(s[1]) == L else ("S4", _inc(s[1]))


_NO_PATH = ("no_refinement_path_available.{1} terminate_with_error_actual", STOP)

# S1..S4 (i) are the level phases, and S4last (L) ends the top-down phase;
# RAL, S1R, S2R and S2Rnext (j, i, origin) refine from level j back up to
# the failing level i, then resume in the origin phase.
PDFD_TABLE = _table({
    "start": [("load_tree_actual initialize_refinement_attempts_actual", ("S1", "1"))],
    "S1": [("determine_ki_actual.{1} process_level_actual.{1}", _as("S2"))],
    "S2": [("is_level_validation_failed.{1}", _as("S2fail")),
           ("level_validation_successful.{1}", _as("S2ok"))],
    "S2fail": [("get_trace_origin_actual.{1}.$j", _refine("RAL", "S2")), _NO_PATH],
    "S2ok": [("cond_threshold_met.{1}", _pdfd_threshold_met),
             ("cond_has_no_children.{1}", _as("S3")), _NO_PATH],
    "RAL": [("has_exhausted_rmax_for_level.{1} terminate_with_error_actual", STOP),
            ("can_attempt_refinement.{1} increment_refinement_attempts_actual.{1}", _as("S1R")),
            ("no_refinement_path_available.* terminate_with_error_actual", STOP)],
    "S1R": [("has_exhausted_rmax_for_level.{1} terminate_with_error_actual", STOP),
            ("determine_ki_actual.{1} process_level_actual.{1}", _as("S2R"))],
    "S2R": [("is_refactor_validation_successful.{1}.{2}", _pdfd_refactor_checked),
            ("refinement_failed_no_retry.{1}.{2}", _as("RAL"))],
    "S2Rnext": [("increment_refinement_attempts_actual.{1}", _as("S1R"))],
    "S3": [("finalize_subtrees_actual.{1}", _as("S3v"))],
    "S3v": [("is_bottom_up_validation_failed.{1}", _as("S3fail")),
            ("bottom_up_validation_successful.{1} cond_all_descendants_validated.{1}",
             _pdfd_bottom_up_ok)],
    "S3fail": [("get_trace_origin_actual.{1}.$j", _refine("RAL", "S3")), _NO_PATH],
    "S4": [("finalize_unprocessed_nodes_actual.{1}", _as("S4v"))],
    "S4v": [("is_top_down_validation_failed.{1}", _as("S4fail")),
            ("top_down_validation_successful.{1}", _pdfd_top_down_ok)],
    "S4last": [("top_down_reaches_L5.{1} terminate_successfully_actual", STOP)],
    "S4fail": [("get_trace_origin_actual.{1}.$j", _refine("RAL", "S4")), _NO_PATH],
})


# S1..S4 (i) are the pattern phases; Retry and S1R..S3Rnext (j, i, origin)
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
    "S3Rc": [("cond_j_lt_i.{1}.{2}", lambda s, _b, _L: ("S3Rnext", _inc(s[1]), *s[2:])),
             ("cond_j_eq_i.{1}.{2}",
              lambda s, _b, _L: ("S3" if s[3] == "S2" else "S4", s[2]))],
    "S3Rnext": [("increment_refinement_attempts_actual.{1}", _as("S1R"))],
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
            "validate_dependencies_actual.$v", lambda _s, b, _L: ("S2", b["$v"]))],
    "S2": [("all_dependencies_processed.{1} generate_children_actual.{1} enqueue_nodes_actual",
            ("S1",)),
           ("missing_dependency.{1}", _as("S3"))],
    "S3": [("extend_graph_actual.{1}.*", _as("S3")), ("enqueue_nodes_actual", ("S1",))],
})

DFD_TABLE = _table({
    "start": [("load_tree_actual initialize_stack_actual.*", ("S1",))],
    "S1": [("stack_is_empty terminate_successfully_actual", STOP),
           ("stack_not_empty.$c dequeue_actual.$c process_actual.$c",
            lambda _s, b, _L: ("S1p", b["$c"]))],
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
            lambda _s, b, _L: ("S2", b["$k"]))],
    "S2": [("not_last_level_actual.{1} advance_level_actual.{1}", ("S1",)),
           ("last_level_actual.{1} terminate_successfully_actual", STOP)],
})


def _component(_s: tuple, b: dict, _L: Any) -> tuple:
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


def _alphabet(table: dict[str, dict[str, Entry]]) -> set[str]:
    """The event names a table can consume: those of its branches' templates."""
    return {t[0] for entries in table.values() for templates, _ in entries.values()
            for t in templates}


# The alphabet of a process is its table's, never the rule rows': an
# annotation that names any other event is refused as outside the alphabet.
ALPHABETS: dict[str, set[str]] = {m: _alphabet(table) for m, table in TABLES.items()}


# -- the recognizer ----------------------------------------------------------------


class Recognizer:
    """Prefix-closed acceptor over one methodology's transition table.

    With no branch in progress, the next event selects one through the
    table; the branch's match plans then consume that event and the ones
    after it.  When the last is consumed, the process moves to the next
    state.  Level parameters above the level domain are refused, and so is
    an event outside the alphabet: it selects no branch and fits no plan."""

    def __init__(self, methodology: str, level_domain: int | None = None):
        self.table = TABLES[methodology]
        self.level_domain = level_domain
        self.state: tuple = START
        self.branch: tuple[Plan, ...] = ()
        self.pos = 0
        self.next: Any = None
        self.captures: dict[str, str] = {}

    def step(self, event: str) -> bool:
        return self.feed([event.split(".")]) is None

    def feed(self, events) -> int | None:
        """Consume segment sequences in order; the index of the first one
        refused, or None when all are accepted.  A captured or wildcard
        segment holds no dot: joined and split again, it would be several."""
        table, domain = self.table, self.level_domain
        state, branch, pos, nxt, captures = (
            self.state, self.branch, self.pos, self.next, self.captures)
        refused = None
        for idx, event in enumerate(events):
            if domain is not None and any(seg.isdecimal() and int(seg) > domain for seg in event[1:]):
                refused = idx
                break
            if pos == len(branch):
                entry = table[state[0]].get(event[0])
                if entry is None:
                    refused = idx
                    break
                branch, nxt = entry
                pos = 0
                captures = {}
            name, size, at, values, free, capture, at_repeated, captured = branch[pos]
            if (event[0] != name or len(event) != size
                    or (at is not None and at(event) != values(state))
                    or (free and "." in event[free])):
                refused = idx
                break
            if capture is not None:
                captures[capture] = event[free]
            if at_repeated is not None and at_repeated(event) != captured(captures):
                refused = idx
                break
            if pos + 1 == len(branch):
                after = nxt if nxt.__class__ is tuple else nxt(state, captures, domain)
                if after is None:
                    refused = idx
                    break
                state = after
            pos += 1
        self.state, self.branch, self.pos, self.next, self.captures = (
            state, branch, pos, nxt, captures)
        return refused


def make_recognizer(methodology: str, level_domain: int | None = None) -> Recognizer:
    if methodology in HYBRID:
        return Recognizer(methodology, level_domain or DEFAULT_LEVEL_DOMAIN)
    return Recognizer(methodology)


@dataclass
class ConformanceResult:
    accepted: bool
    events: list[str]
    reject_index: int | None = None

    @property
    def first_illegal_event(self) -> str | None:
        return None if self.reject_index is None else self.events[self.reject_index]


def accept_events(
    methodology: str, events: list[str], level_domain: int | None = None
) -> ConformanceResult:
    idx = make_recognizer(methodology, level_domain).feed(name.split(".") for name in events)
    return ConformanceResult(idx is None, events, reject_index=idx)


# Trace events rendered per recognizer feed: the rendered events held at
# once are bounded, and each feed's set-up is spread over many events.
_BATCH = 128


def check_csp_conformance(trace: Trace, methodology: str | None = None) -> Verdict:
    """Annotate the trace and run it through the methodology's recognizer.

    Rendering is lazy: the trace is rendered and fed to the recognizer in
    batches of ``_BATCH`` trace events, so no rendered copy of the whole
    trace is held.  After a refusal the rest of the trace is still
    rendered, without feeding, so an annotation failure anywhere wins over
    an earlier illegal event.  A hybrid trace's level domain is its first
    event's level count L; a level count that is not an exact integer fails
    on the first event."""
    methodology = methodology or trace.methodology
    name = f"csp-conformance[{methodology}]"
    try:
        L = _level_count(trace)
    except ValueError:
        first = trace.events[0]
        return Verdict(name, False, f"L={first.payload['L']!r} is not an integer", first.seq)
    recognizer = make_recognizer(methodology, L)
    renders = _Renders(methodology)
    trace_events = trace.events
    count, refused = 0, None  # refused: the first illegal event and its seq
    for start in range(0, len(trace_events), _BATCH):
        events: list[tuple[str, ...]] = []
        ends = []  # per trace event of the batch, the length of ``events`` after its group
        for ev in trace_events[start:start + _BATCH]:
            try:
                events += renders[ev.rule](ev, L)
            except UNREADABLE as exc:
                detail = str(exc) if isinstance(exc, LabelError) else f"annotation failed: {exc}"
                return Verdict(name, False, detail, ev.seq)
            ends.append(len(events))
        count += len(events)
        if refused is None:
            idx = recognizer.feed(events)
            if idx is not None:
                refused = events[idx], trace_events[start + bisect_right(ends, idx)].seq
    if refused is None:
        return Verdict(name, True, f"{count} events accepted")
    event, seq = refused
    text = ".".join(event)
    if event[0] not in ALPHABETS[methodology]:
        return Verdict(name, False, f"event {text!r} outside alphabet", seq)
    return Verdict(name, False, f"illegal event {text!r}", seq)
