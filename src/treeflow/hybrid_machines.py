"""The two hybrid machines: depth-led and breadth-led development over a
hierarchy, with threshold-gated advancement, scripted validation,
origin-directed backtracking, and a per-level refinement budget.

Shared semantics
----------------
* Statuses are committed monotonically: a node reaches FINALIZED only on the
  forward finalization rules, and never regresses in committed snapshots.
  Refinement passes rework nodes in a shadow sense (recorded in payloads)
  without touching committed FINALIZED statuses.
* Refinement attempts are counted per level, once for every reprocessing
  pass entering that level (episode entry, in-range progression, and
  retries).  A pass whose entry brings the counter to the cap terminates the
  run through the exhaustion rule of the machine.
* Every event carries the measure before/after, the phase, indices and
  attempt counters, and the statuses as trace format 2: the full map on the
  first event, then only the nodes each step changed.  The monitors fold
  those changes and re-derive everything from the trace alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .hierarchy import Hierarchy
from .measure import Measure, TraceContext, compose_measure, trace_length_cap
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
    phase: str = "S0"
    i: int = 1
    j: int | None = None
    i_orig: int | None = None
    origin_phase: str | None = None

    def label(self) -> str:
        if self.phase in ("S0", "S5", "T"):
            return self.phase
        if self.phase in ("S1R", "S2R", "S3R"):
            return f"{self.phase}({self.j})"
        return f"{self.phase}({self.i})"


class _Engine:
    """One run's mutable state.

    Besides the statuses and attempt counters, the engine keeps the number
    of unfinalized nodes and of unvisited nodes per level up to date as
    statuses change, so that computing M costs O(L) rather than O(nodes).
    The monitors never see these counters: they fold each event's status
    changes themselves and recompute M.
    """

    def __init__(self, methodology: str, h: Hierarchy, scenario: Scenario):
        self.methodology = methodology
        self.h = h
        self.sc = scenario
        # Validation queries so far per (phase, index); the next query's
        # attempt number is one more.  Kept here, not on the scenario, so a
        # scenario stays an input that any number of runs can share.
        self.queries: dict[tuple[str, int], int] = {}
        self.L = h.max_level
        self.statuses: dict[int, int] = {n: 0 for n in h.nodes}
        self.attempts: dict[int, int] = {l: 0 for l in range(1, self.L + 1)}
        # Snapshot keys in the iteration order of the attempt counters, whose
        # key set never changes during a run.
        self._attempt_keys = [str(l) for l in self.attempts]
        self._changed: list[int] = []  # nodes whose status the step changed
        self.state = _State()
        self.trace = Trace(methodology)
        self.reason: str | None = None
        self.cap = trace_length_cap(len(h), self.L, scenario.r_max)
        self.ctx = TraceContext(
            methodology=methodology,
            levels={k: tuple(n.id for n in h.level(k)) for k in h.levels()},
            max_level=self.L,
            r_max=scenario.r_max,
            k_thresholds=dict(scenario.k_thresholds),
        )
        self._unfinalized = len(self.statuses)
        self._unvisited = {k: len(ids) for k, ids in self.ctx.levels.items()}
        self._measure = self.measure()

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Phase, indices and attempt counters; statuses travel apart."""
        return {
            "phase": self.state.phase,
            "i": self.state.i,
            "j": self.state.j,
            "i_orig": self.state.i_orig,
            "origin_phase": self.state.origin_phase,
            "attempts": dict(zip(self._attempt_keys, self.attempts.values())),
        }

    def measure(self) -> Measure:
        st = self.state
        k2 = sum(self.ctx.r_max - c for c in self.attempts.values())
        unvisited = self._unvisited.get(st.i, 0) if st.phase == "S1" else 0
        return compose_measure(
            self.ctx, st.phase, st.i, st.j, st.i_orig, self._unfinalized, k2, unvisited
        )

    def level_ids(self, k: int) -> list[int]:
        return list(self.ctx.level_ids(k))

    # -- event emission --------------------------------------------------------

    def emit(
        self,
        rule: str,
        new_state: _State,
        payload: dict[str, Any],
        mutate: Any = None,
    ) -> None:
        """Fire one rule: the measure is sampled before the operational step
        (``mutate``) runs, then after the state change.  Nothing changes the
        measured state between two events, so the pre-measure is the
        previous event's post-measure."""
        if len(self.trace) >= self.cap:
            raise HybridRunError(
                f"trace exceeded the measure-derived cap of {self.cap} events"
            )
        pre = self._measure
        from_label = self.state.label()
        extra = mutate() if mutate is not None else None
        self.state = new_state
        post = self._measure = self.measure()
        full = dict(payload)
        if extra:
            full.update(extra)
        full.update(self.snapshot())
        if self.trace.events:
            full["status_changes"] = {str(n): self.statuses[n] for n in self._changed}
        else:
            full["statuses"] = {str(n): s for n, s in self.statuses.items()}
            full["trace_format"] = TRACE_FORMAT
        self._changed.clear()
        self.trace.emit(
            rule,
            from_label,
            new_state.label(),
            full,
            measure_pre=pre,
            measure_post=post,
        )

    # -- status mutation helpers -----------------------------------------------

    def mark_in_progress(self, ids: list[int]) -> list[int]:
        touched = []
        for n in ids:
            s = self.statuses[n]
            if s != 2:
                if s == 0:
                    self._unvisited[self.h.nodes[n].level] -= 1
                    self.statuses[n] = 1
                    self._changed.append(n)
                touched.append(n)
        return touched

    def finalize(self, ids: list[int]) -> list[int]:
        newly = []
        for n in ids:
            s = self.statuses[n]
            if s != 2:
                if s == 0:
                    self._unvisited[self.h.nodes[n].level] -= 1
                self.statuses[n] = 2
                self._unfinalized -= 1
                self._changed.append(n)
                newly.append(n)
        return newly

    def finalized_count(self, level: int) -> int:
        return sum(1 for n in self.level_ids(level) if self.statuses[n] == 2)

    # -- scenario hooks ----------------------------------------------------------

    def next_attempt(self, phase_tag: str, index: int) -> int:
        """The attempt number the next validation at (phase, index) gets."""
        return self.queries.get((phase_tag, index), 0) + 1

    def validate(self, phase_tag: str, index: int, candidates: list[int]):
        attempt = self.queries[(phase_tag, index)] = self.next_attempt(phase_tag, index)
        failing = self.sc.failing_nodes(phase_tag, index, attempt, candidates)
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
        "levels": {str(k): list(eng.ctx.level_ids(k)) for k in sorted(eng.ctx.levels)},
        "L": eng.L,
        "r_max": eng.sc.r_max,
        "k": {str(k): v for k, v in eng.sc.k_thresholds.items()},
    }


# -- depth-led machine ------------------------------------------------------------


def run_pdfd(h: Hierarchy, scenario: Scenario) -> RunResult:
    """Level-by-level descent with threshold gating, bottom-up subtree
    verification, and a final top-down completion sweep.

    Validation failures backtrack to the origin level and reprocess the range
    [origin, failing]; the episode then resumes at the phase that failed.
    Exhausting the per-level budget ends the run in the error state.
    """
    eng = _Engine("pdfd", h, scenario)
    eng.emit("PD1", _State(phase="S1", i=1), _init_payload(eng))

    while eng.state.phase not in ("T", "S5"):
        st = eng.state
        if st.phase == "S1":
            batch = eng.level_ids(st.i)
            eng.emit(
                "PD2",
                _State(phase="S2", i=st.i),
                {"batch": batch},
                mutate=lambda: {"processed": eng.mark_in_progress(batch)},
            )
        elif st.phase == "S2":
            _forward_validation(eng, st.i)
        elif st.phase == "S1R":
            _refinement_process(eng, exhaust_rule="PD8", validate_rule="PD3")
        elif st.phase == "S2R":
            _pdfd_refinement_validation(eng)
        elif st.phase == "S3":
            _bottom_up(eng)
        elif st.phase == "S4":
            _top_down(eng, fail_rule="PD6a", dead_rule="PD6b", forward_rule="PD6", done_rule="PD7")
        else:  # pragma: no cover - defensive
            raise HybridRunError(f"stuck in phase {st.phase}")
    return eng.result()


def _enter_refinement(eng: _Engine, rule: str, j: int, i_orig: int, origin_phase: str, extra: dict) -> None:
    """Transition into a refinement pass at level j, burning one attempt."""

    def burn():
        eng.attempts[j] += 1
        return None

    eng.emit(
        rule,
        _State(phase="S1R", i=i_orig, j=j, i_orig=i_orig, origin_phase=origin_phase),
        dict(extra, j=j),
        mutate=burn,
    )


def _terminal_error(eng: _Engine, rule: str, reason: str, extra: dict) -> None:
    eng.reason = reason
    payload = dict(extra)
    payload["reason"] = reason
    eng.emit(rule, _State(phase="S5"), payload)


def _forward_validation(eng: _Engine, i: int) -> None:
    candidates = eng.level_ids(i)
    attempt, failing = eng.validate("level", i, candidates)
    base = {"level": i, "attempt": attempt, "failing": failing}
    if failing:
        try:
            j = eng.origin_for(i, failing)
        except UndefinedTraceOriginError:
            _terminal_error(eng, "PD8", "no_refinement_path", base)
            return
        _enter_refinement(eng, "PD2a", j, i, "S2", base)
        return
    k_i = eng.sc.k_for(i, len(candidates))

    def commit():
        newly = eng.finalize(candidates)
        gate = eng.finalized_count(i)
        assert gate >= k_i, "advance gate must hold at finalization"
        return {"finalized": newly, "finalized_count": gate}

    payload = dict(base, k=k_i)
    if i < eng.L and eng.level_ids(i + 1):
        eng.emit("PD2b", _State(phase="S1", i=i + 1), payload, mutate=commit)
    else:
        eng.emit("PD4", _State(phase="S3", i=i), payload, mutate=commit)


def _refinement_process(eng: _Engine, exhaust_rule: str, validate_rule: str) -> None:
    st = eng.state
    j = st.j
    assert j is not None and st.i_orig is not None
    if eng.attempts[j] >= eng.sc.r_max:
        _terminal_error(
            eng,
            exhaust_rule,
            "refinement_exhausted",
            {"level": j, "attempts": eng.attempts[j]},
        )
        return
    reworked = eng.level_ids(j)
    eng.emit(
        validate_rule,
        _State(phase="S2R", i=st.i, j=j, i_orig=st.i_orig, origin_phase=st.origin_phase),
        {"level": j, "reworked": reworked},
    )


def _return_state(eng: _Engine) -> _State:
    """Episode complete: resume the phase that detected the failure."""
    st = eng.state
    assert st.i_orig is not None and st.origin_phase is not None
    return _State(phase=st.origin_phase, i=st.i_orig)


def _pdfd_refinement_validation(eng: _Engine) -> None:
    st = eng.state
    j, i_orig = st.j, st.i_orig
    assert j is not None and i_orig is not None
    attempt, failing = eng.validate("refine", j, eng.level_ids(j))
    base = {"level": j, "attempt": attempt, "failing": failing, "range_end": i_orig}
    if failing:
        _enter_refinement(eng, "PD3c", j, i_orig, st.origin_phase or "S2", base)
        return
    if j < i_orig:

        def burn():
            eng.attempts[j + 1] += 1
            return None

        eng.emit(
            "PD3a",
            _State(phase="S1R", i=st.i, j=j + 1, i_orig=i_orig, origin_phase=st.origin_phase),
            base,
            mutate=burn,
        )
    else:
        eng.emit("PD3b", _return_state(eng), base)


def _bottom_up(eng: _Engine) -> None:
    i = eng.state.i
    candidates = eng.level_ids(i)
    attempt, failing = eng.validate("bottom_up", i, candidates)
    base = {"level": i, "attempt": attempt, "failing": failing}
    if failing:
        try:
            j = eng.origin_for(i, failing)
        except UndefinedTraceOriginError:
            _terminal_error(eng, "PD8", "no_refinement_path", base)
            return
        _enter_refinement(eng, "PD4b", j, i, "S3", base)
        return
    if i > 2:
        eng.emit("PD4a", _State(phase="S3", i=i - 1), base)
    else:
        eng.emit("PD5", _State(phase="S4", i=1), base)


def _top_down(eng: _Engine, fail_rule: str, dead_rule: str, forward_rule: str, done_rule: str) -> None:
    i = eng.state.i
    candidates = eng.level_ids(i)
    attempt, failing = eng.validate("top_down", i, candidates)
    base = {"level": i, "attempt": attempt, "failing": failing}
    if failing:
        try:
            j = eng.origin_for(i, failing)
        except UndefinedTraceOriginError:
            _terminal_error(eng, dead_rule, "no_refinement_path", base)
            return
        _enter_refinement(eng, fail_rule, j, i, "S4", base)
        return
    if i < eng.L:
        eng.emit(forward_rule, _State(phase="S4", i=i + 1), base)
    else:
        unfinalized = [n for n, s in eng.statuses.items() if s != 2]
        assert not unfinalized, f"termination with unfinalized nodes {unfinalized}"
        eng.emit(done_rule, _State(phase="T"), base)


# -- breadth-led machine -------------------------------------------------------------


def run_pbfd(h: Hierarchy, scenario: Scenario) -> RunResult:
    """Pattern-wise horizontal progression with derived next patterns.

    The first pattern is the root level; each depth-resolution step finalizes
    the current pattern and derives the next one from its children.  Failures
    backtrack to the origin pattern and reprocess the range, then resume with
    the depth resolution (or the completion sweep) they interrupted.
    """
    eng = _Engine("pbfd", h, scenario)
    patterns: dict[int, list[int]] = {1: eng.level_ids(1)}
    eng.emit("PB1", _State(phase="S1", i=1), dict(_init_payload(eng), pattern=patterns[1]))

    def pattern_for(level: int) -> list[int]:
        return patterns.get(level, eng.level_ids(level))

    while eng.state.phase not in ("T", "S5"):
        st = eng.state
        if st.phase == "S1":
            batch = pattern_for(st.i)
            if batch and all(eng.statuses[n] == 2 for n in batch):
                eng.emit("PB2a", _State(phase="S3", i=st.i), {"pattern": batch})
                continue
            eng.emit(
                "PB2",
                _State(phase="S2", i=st.i),
                {"pattern": batch},
                mutate=lambda b=batch: {"processed": eng.mark_in_progress(b)},
            )
        elif st.phase == "S2":
            candidates = pattern_for(st.i)
            attempt, failing = eng.validate("pattern", st.i, candidates)
            base = {"level": st.i, "attempt": attempt, "failing": failing}
            if failing:
                try:
                    j = eng.origin_for(st.i, failing)
                except UndefinedTraceOriginError:
                    _terminal_error(eng, "PB3c", "no_refinement_path", base)
                    continue
                _enter_refinement(eng, "PB3", j, st.i, "S2", base)
            else:
                eng.emit("PB4", _State(phase="S3", i=st.i), base)
        elif st.phase == "S1R":
            _pbfd_refinement_process(eng)
        elif st.phase == "S2R":
            _pbfd_refinement_validation(eng)
        elif st.phase == "S3R":
            _pbfd_refinement_depth(eng)
        elif st.phase == "S3":
            _pbfd_depth_resolution(eng, patterns, pattern_for)
        elif st.phase == "S4":
            _top_down(eng, fail_rule="PB7a", dead_rule="PB7b", forward_rule="PB7", done_rule="PB8")
        else:  # pragma: no cover - defensive
            raise HybridRunError(f"stuck in phase {st.phase}")
    return eng.result()


def _pbfd_refinement_process(eng: _Engine) -> None:
    st = eng.state
    j = st.j
    assert j is not None and st.i_orig is not None
    if eng.attempts[j] >= eng.sc.r_max:
        _terminal_error(
            eng, "PB9", "refinement_exhausted", {"level": j, "attempts": eng.attempts[j]}
        )
        return
    pattern = eng.level_ids(j)
    already_done = all(eng.statuses[n] == 2 for n in pattern)
    if already_done and not eng.sc.has_script_for("refine", j, eng.next_attempt("refine", j)):
        eng.emit(
            "PB3b",
            _State(phase="S3R", i=st.i, j=j, i_orig=st.i_orig, origin_phase=st.origin_phase),
            {"level": j, "pattern": pattern},
        )
        return
    eng.emit(
        "PB3a",
        _State(phase="S2R", i=st.i, j=j, i_orig=st.i_orig, origin_phase=st.origin_phase),
        {"level": j, "reworked": pattern},
    )


def _pbfd_refinement_validation(eng: _Engine) -> None:
    st = eng.state
    j, i_orig = st.j, st.i_orig
    assert j is not None and i_orig is not None
    attempt, failing = eng.validate("refine", j, eng.level_ids(j))
    base = {"level": j, "attempt": attempt, "failing": failing, "range_end": i_orig}
    if failing:
        _enter_refinement(eng, "PB3a2", j, i_orig, st.origin_phase or "S2", base)
        return
    eng.emit(
        "PB3a1",
        _State(phase="S3R", i=st.i, j=j, i_orig=i_orig, origin_phase=st.origin_phase),
        base,
    )


def _pbfd_refinement_depth(eng: _Engine) -> None:
    st = eng.state
    j, i_orig = st.j, st.i_orig
    assert j is not None and i_orig is not None
    base = {"level": j, "range_end": i_orig}
    if j < i_orig:

        def burn():
            eng.attempts[j + 1] += 1
            return None

        eng.emit(
            "PB5",
            _State(phase="S1R", i=st.i, j=j + 1, i_orig=i_orig, origin_phase=st.origin_phase),
            base,
            mutate=burn,
        )
    else:
        target = _return_state(eng)
        # An episode opened during forward validation resumes at the depth
        # resolution of the origin pattern (its validation succeeded inside
        # the episode); completion-phase episodes resume the sweep.
        if target.phase == "S2":
            target = _State(phase="S3", i=i_orig)
        eng.emit("PB6", target, base)


def _pbfd_depth_resolution(eng: _Engine, patterns: dict[int, list[int]], pattern_for) -> None:
    i = eng.state.i
    pattern = pattern_for(i)
    next_ids = sorted(c.id for n in pattern for c in eng.h.children(n))

    def commit():
        newly = eng.finalize(pattern)
        assert all(eng.statuses[n] == 2 for n in pattern)
        return {"finalized": newly}

    base = {"level": i, "next_pattern": next_ids}
    if i < eng.L and next_ids:
        patterns[i + 1] = next_ids
        eng.emit("PB4a", _State(phase="S1", i=i + 1), base, mutate=commit)
    else:
        eng.emit("PB4b", _State(phase="S4", i=1), base, mutate=commit)
