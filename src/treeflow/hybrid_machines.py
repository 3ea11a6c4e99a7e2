"""The two hybrid machines: depth-led and breadth-led development over a
hierarchy, with threshold-gated advancement, scripted validation,
origin-directed backtracking, and a per-level refinement budget.

Shared semantics
----------------
* Statuses are committed monotonically: a node reaches FINALIZED only on the
  forward finalization rules, and never regresses in committed snapshots.
  Refinement passes rework a level without touching committed FINALIZED
  statuses; the trace records the pass by its rule and level alone.
* Refinement attempts are counted per level, once for every reprocessing
  pass entering that level (episode entry, in-range progression, and
  retries).  A pass whose entry brings the counter to the cap terminates the
  run through the exhaustion rule of the machine.  An entry is an event
  whose target is S1R(j): the monitors count those, the trace no counters.
* An event's labels are the engine's state: the target label names the
  phase and its level.  Its payload carries the statuses as trace format 2:
  the full map on the first event, then only the nodes each step changed.
  The first event also holds the run parameters, the level map among them;
  beyond those, an event holds only its ``level``, a query's ``attempt``
  and ``failing`` nodes, an episode's ``range_end`` or a ``reason``.  The
  engine computes no measure.  The monitors fold the labels and the status
  changes and re-derive everything, the measure too, from the trace alone.
* A run is ``start_run`` followed by ``_Engine.step`` until T or S5.  Each
  step fires one rule and asks at most one validation query, before it
  changes any state, so a fork of the engine taken at the query is the
  state before that step: the run enumerator in ``verify`` forks there to
  explore the other answer.

Refinement episodes
-------------------
Both machines share one episode mechanism, each step written once.
``_validated`` validates the current level and on failure backtracks to
the traced origin j (PD2a, PD4b, PD6a, PB3, PB7a) or, with no origin,
dead-ends (PD8, PD6b, PB3c, PB7b).  ``_enter_refinement`` is the one place
an attempt is burned: on that backtrack, on a failed rework (PD3c, PB3a2,
from ``_refinement_validated``) and on each step up the range [j, i] (PD3a,
PB5).  ``_exhausted`` ends a pass whose level has no budget left (PD8,
PB9); ``_return_state`` resumes the failed phase (PD3b, PB6).

Two invariants keep the breadth-led machine free of bookkeeping:

* Pattern i is level i: pattern 1 is the root level, and the children of
  every level-i node are all of level i+1, which PB4a derives.
* S1(i) precedes any finalization of level i: S1(i) is entered once per
  level (PB1, PB4a), level i is finalized only at S3(i), and episodes
  resume at S3 or S4, never at S1.  So no pattern is finalized on entry,
  and PB2a, which the process allows for that case, never fires.  Like
  PB3a3, it is a process-only rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from .hierarchy import Hierarchy
from .measure import trace_length_cap
from .scenario import (
    Scenario,
    UndefinedTraceOriginError,
    resolve_trace_origin,
)
from .trace import TRACE_FORMAT, Trace


class HybridRunError(RuntimeError):
    pass


@dataclass
class RunResult:
    trace: Trace
    outcome: str  # "T" or "S5"
    reason: str | None
    attempts: dict[int, int]
    statuses: dict[int, int]

    @property
    def succeeded(self) -> bool:
        return self.outcome == "T"


@dataclass
class _State:
    """A phase and its level i; a refinement phase reworks level j, and its
    i is the level whose failure in ``origin_phase`` opened the episode."""

    phase: str = "S0"
    i: int = 1
    j: int | None = None
    origin_phase: str | None = None

    def label(self) -> str:
        if self.phase in ("S0", "S5", "T"):
            return self.phase
        if self.phase in ("S1R", "S2R", "S3R"):
            return f"{self.phase}({self.j})"
        return f"{self.phase}({self.i})"


class _Engine:
    """One run's mutable state: the statuses, the attempt counters and the
    validation queries so far.  The monitors never see them: they fold
    each event's labels and status changes themselves.

    ``fork`` copies only what a step changes in place; the hierarchy, the
    scenario, the level map and the ``_State`` (replaced, never mutated)
    are shared.
    """

    def __init__(self, methodology: str, h: Hierarchy, scenario: Scenario):
        self.methodology = methodology
        self.h = h
        self.sc = scenario
        # Validation queries so far per (phase, index); the next query's
        # attempt number is one more.  Kept here, not on the scenario, so a
        # scenario stays an input that any number of runs can share.
        self.queries: dict[tuple[str, int], int] = {}
        # Answers each query with its failing nodes: (phase tag, index,
        # attempt, the level's ids) -> ids.  The run enumerator replaces it.
        self.answer: Callable[[str, int, int, list[int]], Any] = scenario.failing_nodes
        self.L = h.max_level
        self.statuses: dict[int, int] = {n: 0 for n in h.nodes}
        self.attempts: dict[int, int] = {l: 0 for l in range(1, self.L + 1)}
        self._changed: list[int] = []  # nodes whose status the step changed
        self.state = _State()
        self.trace = Trace(methodology)
        self.reason: str | None = None
        self.cap = trace_length_cap(len(h), self.L, scenario.r_max)
        self.levels = {k: tuple(n.id for n in h.level(k)) for k in h.levels()}

    # -- stepping ----------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state.phase in ("T", "S5")

    def step(self) -> None:
        """Fire the next rule of the machine."""
        _MACHINES[self.methodology][1](self)

    def finish(self) -> RunResult:
        while not self.done:
            self.step()
        return self.result()

    def fork(self) -> "_Engine":
        """An independent copy of this run, to be stepped apart from it.
        Every field is named here, so a field added to ``__init__`` and not
        here is missing on a fork rather than shared by mistake."""
        other = object.__new__(_Engine)
        # Never changed in place during a run: shared.
        other.methodology, other.h, other.sc, other.answer = (
            self.methodology, self.h, self.sc, self.answer)
        other.L, other.cap, other.levels = self.L, self.cap, self.levels
        # Replaced, never mutated: the new run rebinds its own.
        other.state, other.reason = self.state, self.reason
        # Changed in place by a step: copied.
        other.queries = dict(self.queries)
        other.statuses = dict(self.statuses)
        other.attempts = dict(self.attempts)
        other._changed = []
        other.trace = Trace(self.methodology, self.trace.events)
        return other

    # -- event emission --------------------------------------------------------

    def emit(self, rule: str, new_state: _State, payload: dict[str, Any]) -> None:
        """Fire one rule whose operational step (status marks, an attempt
        burn) has already run; the event adds its status changes to
        ``payload``, a dict of its own."""
        if len(self.trace) >= self.cap:
            raise HybridRunError(
                f"trace exceeded the measure-derived cap of {self.cap} events"
            )
        from_label = self.state.label()
        self.state = new_state
        if self.trace.events:
            payload["status_changes"] = {str(n): self.statuses[n] for n in self._changed}
        else:
            payload["statuses"] = {str(n): s for n, s in self.statuses.items()}
            payload["trace_format"] = TRACE_FORMAT
        self._changed.clear()
        self.trace.emit(rule, from_label, new_state.label(), payload)

    # -- status mutation helpers -----------------------------------------------

    def mark_in_progress(self, ids: tuple[int, ...]) -> None:
        for n in ids:
            if self.statuses[n] == 0:
                self.statuses[n] = 1
                self._changed.append(n)

    def finalize(self, ids: tuple[int, ...]) -> None:
        for n in ids:
            if self.statuses[n] != 2:
                self.statuses[n] = 2
                self._changed.append(n)

    # -- scenario hooks ----------------------------------------------------------

    def level_ids(self, k: int) -> tuple[int, ...]:
        return self.levels.get(k, ())

    def next_attempt(self, phase_tag: str, index: int) -> int:
        """The attempt number the next validation at (phase, index) gets."""
        return self.queries.get((phase_tag, index), 0) + 1

    def validate(self, phase_tag: str, index: int):
        attempt = self.next_attempt(phase_tag, index)
        # Asked before the query is counted: the engine is still as the step found it.
        failing = self.answer(phase_tag, index, attempt, list(self.level_ids(index)))
        self.queries[(phase_tag, index)] = attempt
        return attempt, sorted(failing)

    def origin_for(self, level: int, failing: list[int]) -> int:
        return resolve_trace_origin(
            self.sc.trace_origin,
            level,
            set(failing),
            hierarchy=self.h,
            implicated=self.sc.implicated_nodes,
        )

    def result(self) -> RunResult:
        return RunResult(
            trace=self.trace,
            outcome=self.state.phase,
            reason=self.reason,
            attempts=dict(self.attempts),
            statuses=dict(self.statuses),
        )


def _init_payload(eng: _Engine) -> dict[str, Any]:
    return {
        "levels": {str(k): list(ids) for k, ids in sorted(eng.levels.items())},
        "L": eng.L,
        "r_max": eng.sc.r_max,
        "k": {str(k): v for k, v in eng.sc.k_thresholds.items()},
    }


# -- refinement episodes: the steps both machines share ------------------------------


def _terminal_error(eng: _Engine, rule: str, reason: str, extra: dict) -> None:
    eng.reason = reason
    eng.emit(rule, _State(phase="S5"), dict(extra, reason=reason))


def _enter_refinement(
    eng: _Engine, rule: str, j: int, i: int, origin_phase: str, payload: dict
) -> None:
    """Move into the refinement pass at level j, burning one attempt there;
    i, the level that failed in ``origin_phase``, ends the pass's range."""
    eng.attempts[j] += 1
    eng.emit(rule, _State(phase="S1R", i=i, j=j, origin_phase=origin_phase), payload)


def _validated(eng: _Engine, tag: str, fail_rule: str, dead_rule: str) -> dict | None:
    """Validate the current level.  On success return the payload the next
    rule carries; on failure backtrack to the traced origin (``fail_rule``)
    or, with no origin, dead-end (``dead_rule``), and return None."""
    st = eng.state
    attempt, failing = eng.validate(tag, st.i)
    base = {"level": st.i, "attempt": attempt, "failing": failing}
    if not failing:
        return base
    try:
        j = eng.origin_for(st.i, failing)
    except UndefinedTraceOriginError:
        _terminal_error(eng, dead_rule, "no_refinement_path", base)
    else:
        _enter_refinement(eng, fail_rule, j, st.i, st.phase, base)
    return None


def _exhausted(eng: _Engine, rule: str) -> bool:
    """At a refinement pass entry: end the run if level j has no budget left."""
    j = eng.state.j
    if eng.attempts[j] < eng.sc.r_max:
        return False
    _terminal_error(eng, rule, "refinement_exhausted", {"level": j})
    return True


def _refinement_validated(eng: _Engine, fail_rule: str) -> dict | None:
    """Validate the reworked level j.  On failure retry it (``fail_rule``)
    and return None; on success return the payload the next rule carries."""
    st = eng.state
    attempt, failing = eng.validate("refine", st.j)
    base = {"level": st.j, "attempt": attempt, "failing": failing, "range_end": st.i}
    if not failing:
        return base
    _enter_refinement(eng, fail_rule, st.j, st.i, st.origin_phase, base)
    return None


def _return_state(eng: _Engine) -> _State:
    """Episode complete: resume the phase that detected the failure."""
    st = eng.state
    return _State(phase=st.origin_phase, i=st.i)


def _top_down(eng: _Engine, fail_rule: str, dead_rule: str, forward_rule: str, done_rule: str) -> None:
    base = _validated(eng, "top_down", fail_rule, dead_rule)
    if base is None:
        return
    i = eng.state.i
    if i < eng.L:
        eng.emit(forward_rule, _State(phase="S4", i=i + 1), base)
    else:
        unfinalized = [n for n, s in eng.statuses.items() if s != 2]
        assert not unfinalized, f"termination with unfinalized nodes {unfinalized}"
        eng.emit(done_rule, _State(phase="T"), base)


# -- depth-led machine ------------------------------------------------------------


def run_pdfd(h: Hierarchy, scenario: Scenario) -> RunResult:
    """Level-by-level descent with threshold gating, bottom-up subtree
    verification, and a final top-down completion sweep.

    Validation failures backtrack to the origin level and reprocess the range
    [origin, failing]; the episode then resumes at the phase that failed.
    Exhausting the per-level budget ends the run in the error state.
    """
    return start_run("pdfd", h, scenario).finish()


def _pdfd_start(eng: _Engine) -> None:
    eng.emit("PD1", _State(phase="S1", i=1), _init_payload(eng))


def _pdfd_step(eng: _Engine) -> None:
    st = eng.state
    if st.phase == "S1":
        eng.mark_in_progress(eng.level_ids(st.i))
        eng.emit("PD2", _State(phase="S2", i=st.i), {})
    elif st.phase == "S2":
        _forward_validation(eng)
    elif st.phase == "S1R":
        if not _exhausted(eng, "PD8"):
            eng.emit("PD3", replace(st, phase="S2R"), {"level": st.j})
    elif st.phase == "S2R":
        _pdfd_refinement_validation(eng)
    elif st.phase == "S3":
        _bottom_up(eng)
    elif st.phase == "S4":
        _top_down(eng, fail_rule="PD6a", dead_rule="PD6b", forward_rule="PD6", done_rule="PD7")
    else:  # pragma: no cover - defensive
        raise HybridRunError(f"stuck in phase {st.phase}")


def _forward_validation(eng: _Engine) -> None:
    base = _validated(eng, "level", "PD2a", "PD8")
    if base is None:
        return
    i = eng.state.i
    level = eng.level_ids(i)
    eng.sc.k_for(i, len(level))  # a threshold above the level's size is refused
    eng.finalize(level)
    if i < eng.L and eng.level_ids(i + 1):
        eng.emit("PD2b", _State(phase="S1", i=i + 1), base)
    else:
        eng.emit("PD4", _State(phase="S3", i=i), base)


def _pdfd_refinement_validation(eng: _Engine) -> None:
    base = _refinement_validated(eng, "PD3c")
    if base is None:
        return
    st = eng.state
    if st.j < st.i:
        _enter_refinement(eng, "PD3a", st.j + 1, st.i, st.origin_phase, base)
    else:
        eng.emit("PD3b", _return_state(eng), base)


def _bottom_up(eng: _Engine) -> None:
    base = _validated(eng, "bottom_up", "PD4b", "PD8")
    if base is None:
        return
    i = eng.state.i
    if i > 2:
        eng.emit("PD4a", _State(phase="S3", i=i - 1), base)
    else:
        eng.emit("PD5", _State(phase="S4", i=1), base)


# -- breadth-led machine -------------------------------------------------------------


def run_pbfd(h: Hierarchy, scenario: Scenario) -> RunResult:
    """Pattern-wise horizontal progression with derived next patterns.

    The first pattern is the root level; each depth-resolution step finalizes
    the current pattern and derives the next one from its children.  Failures
    backtrack to the origin pattern and reprocess the range, then resume with
    the depth resolution (or the completion sweep) they interrupted.
    """
    return start_run("pbfd", h, scenario).finish()


def _pbfd_start(eng: _Engine) -> None:
    eng.emit("PB1", _State(phase="S1", i=1), _init_payload(eng))


def _pbfd_step(eng: _Engine) -> None:
    st = eng.state
    if st.phase == "S1":
        eng.mark_in_progress(eng.level_ids(st.i))
        eng.emit("PB2", _State(phase="S2", i=st.i), {})
    elif st.phase == "S2":
        base = _validated(eng, "pattern", "PB3", "PB3c")
        if base is not None:
            eng.emit("PB4", _State(phase="S3", i=st.i), base)
    elif st.phase == "S1R":
        if not _exhausted(eng, "PB9"):
            _pbfd_refinement_process(eng)
    elif st.phase == "S2R":
        base = _refinement_validated(eng, "PB3a2")
        if base is not None:
            eng.emit("PB3a1", replace(st, phase="S3R"), base)
    elif st.phase == "S3R":
        _pbfd_refinement_depth(eng)
    elif st.phase == "S3":
        _pbfd_depth_resolution(eng)
    elif st.phase == "S4":
        _top_down(eng, fail_rule="PB7a", dead_rule="PB7b", forward_rule="PB7", done_rule="PB8")
    else:  # pragma: no cover - defensive
        raise HybridRunError(f"stuck in phase {st.phase}")


def _pbfd_refinement_process(eng: _Engine) -> None:
    st = eng.state
    j = st.j
    already_done = all(eng.statuses[n] == 2 for n in eng.level_ids(j))
    if already_done and not eng.sc.has_script_for("refine", j, eng.next_attempt("refine", j)):
        eng.emit("PB3b", replace(st, phase="S3R"), {"level": j})
    else:
        eng.emit("PB3a", replace(st, phase="S2R"), {"level": j})


def _pbfd_refinement_depth(eng: _Engine) -> None:
    st = eng.state
    base = {"level": st.j, "range_end": st.i}
    if st.j < st.i:
        _enter_refinement(eng, "PB5", st.j + 1, st.i, st.origin_phase, base)
        return
    target = _return_state(eng)
    # An episode opened during forward validation resumes at the depth
    # resolution of the origin pattern (its validation succeeded inside
    # the episode); completion-phase episodes resume the sweep.
    if target.phase == "S2":
        target = _State(phase="S3", i=st.i)
    eng.emit("PB6", target, base)


def _pbfd_depth_resolution(eng: _Engine) -> None:
    i = eng.state.i
    eng.finalize(eng.level_ids(i))
    if eng.level_ids(i + 1):  # the children of every level-i node
        eng.emit("PB4a", _State(phase="S1", i=i + 1), {"level": i})
    else:
        eng.emit("PB4b", _State(phase="S4", i=1), {"level": i})


# Each hybrid machine's initial rule and step.
_MACHINES: dict[str, tuple[Callable[[_Engine], None], Callable[[_Engine], None]]] = {
    "pdfd": (_pdfd_start, _pdfd_step),
    "pbfd": (_pbfd_start, _pbfd_step),
}


def start_run(methodology: str, h: Hierarchy, scenario: Scenario) -> _Engine:
    """A run of the hybrid machine ``methodology`` that has fired its
    initial rule; ``step`` it until ``done``.  A basic machine or an unknown
    name raises ValueError."""
    machine = _MACHINES.get(methodology)
    if machine is None:
        raise ValueError(f"{methodology!r} is not a hybrid machine (pdfd, pbfd)")
    eng = _Engine(methodology, h, scenario)
    machine[0](eng)
    return eng
