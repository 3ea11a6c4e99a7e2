"""Post-hoc trace monitors for the hybrid machines' formal guarantees.

Checks provided, all pure over immutable traces:

* well-formedness: events chain and every rule is known for the methodology;
* rule legality: each rule's firing condition is re-evaluated from the
  previous event's payload, the event payload and the folded statuses;
* measure descent: every non-terminal transition strictly decreases the
  lexicographic measure, with per-component deltas matching the rule's
  expected pattern; recorded measures are recomputed from the payloads and
  from counts the monitor keeps over the folded status changes;
* bounded refinement: per-level attempt counters never exceed the cap and
  the total number of increments is at most levels x cap;
* finalization invariance: no status change moves a FINALIZED node;
* deadlock freeness: static rule-table coverage plus bounded exhaustive
  enumeration of reachable machine configurations over all validation
  outcomes.

The status monitors read statuses through ``trace.fold_statuses``, so they
accept both the delta-encoded format and full per-event snapshots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

from .hierarchy import Hierarchy
from .measure import Measure, TraceContext, measure_with_counts
from .scenario import Scenario, TraceOriginStrategy
from .trace import StatusFoldError, Trace, TraceEvent, check_chaining, fold_statuses


class Delta(enum.Enum):
    EQ = "="
    DOWN = "v"
    UP = "^"
    ANY = "*"
    NONINC = "<="


@dataclass(frozen=True)
class RuleSpec:
    source: str
    targets: tuple[str, ...]
    kind: str = "step"  # "step" | "terminal" | "initial"
    deltas: tuple[Delta, Delta, Delta, Delta] | None = None


E, D, U, A, N = Delta.EQ, Delta.DOWN, Delta.UP, Delta.ANY, Delta.NONINC

PDFD_RULES: dict[str, RuleSpec] = {
    "PD1": RuleSpec("S0", ("S1",), kind="initial"),
    "PD2": RuleSpec("S1", ("S2",), deltas=(E, E, D, D)),
    "PD2a": RuleSpec("S2", ("S1R",), deltas=(E, D, U, A)),
    "PD2b": RuleSpec("S2", ("S1",), deltas=(D, E, A, A)),
    "PD3": RuleSpec("S1R", ("S2R",), deltas=(E, E, D, D)),
    "PD3a": RuleSpec("S2R", ("S1R",), deltas=(E, D, A, E)),
    "PD3b": RuleSpec("S2R", ("S2", "S3", "S4"), deltas=(E, E, N, A)),
    "PD3c": RuleSpec("S2R", ("S1R",), deltas=(E, D, U, A)),
    "PD4": RuleSpec("S2", ("S3",), deltas=(D, E, D, A)),
    "PD4a": RuleSpec("S3", ("S3",), deltas=(E, E, E, D)),
    "PD4b": RuleSpec("S3", ("S1R",), deltas=(E, D, U, A)),
    "PD5": RuleSpec("S3", ("S4",), deltas=(E, E, D, A)),
    "PD6": RuleSpec("S4", ("S4",), deltas=(E, E, E, D)),
    "PD6a": RuleSpec("S4", ("S1R",), deltas=(E, D, U, A)),
    "PD6b": RuleSpec("S4", ("S5",), kind="terminal"),
    "PD7": RuleSpec("S4", ("T",), kind="terminal"),
    "PD8": RuleSpec("S1R", ("S5",), kind="terminal"),
}

# Exhaustion and path-less failures surface as PD8 from validation phases as
# well; the generic table places PD8 under the refinement-process state.
PDFD_PD8_SOURCES = ("S1R", "S2", "S2R", "S3")

PBFD_RULES: dict[str, RuleSpec] = {
    "PB1": RuleSpec("S0", ("S1",), kind="initial"),
    "PB2": RuleSpec("S1", ("S2",), deltas=(E, E, D, D)),
    "PB2a": RuleSpec("S1", ("S3",), deltas=(E, E, D, A)),
    "PB3": RuleSpec("S2", ("S1R",), deltas=(E, D, U, A)),
    "PB3a": RuleSpec("S1R", ("S2R",), deltas=(E, E, D, D)),
    "PB3a1": RuleSpec("S2R", ("S3R",), deltas=(E, E, D, E)),
    "PB3a2": RuleSpec("S2R", ("S1R",), deltas=(E, D, U, A)),
    "PB3a3": RuleSpec("S2R", ("S5",), kind="terminal"),
    "PB3b": RuleSpec("S1R", ("S3R",), deltas=(E, E, D, D)),
    "PB3c": RuleSpec("S2", ("S5",), kind="terminal"),
    "PB4": RuleSpec("S2", ("S3",), deltas=(E, E, D, E)),
    "PB4a": RuleSpec("S3", ("S1",), deltas=(D, E, A, A)),
    "PB4b": RuleSpec("S3", ("S4",), deltas=(D, E, D, A)),
    "PB5": RuleSpec("S3R", ("S1R",), deltas=(E, D, A, E)),
    "PB6": RuleSpec("S3R", ("S3", "S4"), deltas=(E, E, N, A)),
    "PB7": RuleSpec("S4", ("S4",), deltas=(E, E, E, D)),
    "PB7a": RuleSpec("S4", ("S1R",), deltas=(E, D, U, A)),
    "PB7b": RuleSpec("S4", ("S5",), kind="terminal"),
    "PB8": RuleSpec("S4", ("T",), kind="terminal"),
    "PB9": RuleSpec("S1R", ("S5",), kind="terminal"),
}

RULE_TABLES = {"pdfd": PDFD_RULES, "pbfd": PBFD_RULES}

BASIC_RULES: dict[str, dict[str, RuleSpec]] = {
    "dad": {
        "DA1": RuleSpec("S0", ("S1",), kind="initial"),
        "DA2": RuleSpec("S1", ("S2",)),
        "DA3": RuleSpec("S2", ("S1",)),
        "DA4": RuleSpec("S2", ("S3",)),
        "DA5": RuleSpec("S3", ("S1",)),
        "DA6": RuleSpec("S1", ("T",), kind="terminal"),
    },
    "dfd": {
        "DF1": RuleSpec("S0", ("S1",), kind="initial"),
        "DF2": RuleSpec("S1", ("S1",)),
        "DF3": RuleSpec("S1", ("S2",)),
        "DF4": RuleSpec("S2", ("S1",)),
        "DF5": RuleSpec("S2", ("S3",)),
        "DF6": RuleSpec("S3", ("S2",)),
        "DF7": RuleSpec("S3", ("T",), kind="terminal"),
    },
    "bfd": {
        "BF1": RuleSpec("S0", ("S1",), kind="initial"),
        "BF2": RuleSpec("S1", ("S1",)),
        "BF3": RuleSpec("S1", ("S2",)),
        "BF4": RuleSpec("S2", ("S1",)),
        "BF5": RuleSpec("S2", ("T",), kind="terminal"),
    },
    "cdd": {
        "CD1": RuleSpec("S0", ("S1",), kind="initial"),
        "CD2": RuleSpec("S1", ("S1",)),
        "CD3a": RuleSpec("S1", ("S2",)),
        "CD3b": RuleSpec("S1", ("S2",)),
        "CD4": RuleSpec("S2", ("S1",)),
        "CD5": RuleSpec("S1", ("S3",)),
        "CD6": RuleSpec("S3", ("S2",)),
        "CD7": RuleSpec("S3", ("T",), kind="terminal"),
    },
    "tle": {
        "TLE1": RuleSpec("start", ("S0",), kind="initial"),
        "TLE2": RuleSpec("S0", ("S1",)),
        "TLE3": RuleSpec("S1", ("S2",)),
        "TLE4": RuleSpec("S2", ("S3",)),
        "TLE5": RuleSpec("S3", ("S4",)),
        "TLE6": RuleSpec("S4", ("S5",)),
        "TLE7": RuleSpec("S5", ("S0",)),
        "TLE8": RuleSpec("S5", ("S6",)),
        "TLE9": RuleSpec("S6", ("end",), kind="terminal"),
    },
}
# A run with zero pages finalizes straight from the waiting state.
TLE8_SOURCES = ("S5", "S0")


@dataclass
class Verdict:
    name: str
    ok: bool
    detail: str = ""
    first_violation_seq: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" (event {self.first_violation_seq}: {self.detail})" if not self.ok else ""
        return f"{status} {self.name}{extra}"


def _family(label: str) -> str:
    return label.split("(")[0]


def context_of(trace: Trace, methodology: str | None = None) -> TraceContext:
    methodology = methodology or trace.methodology
    if not trace.events:
        raise ValueError("empty trace")
    return TraceContext.from_payload(methodology, trace.events[0].payload)


def check_well_formed(trace: Trace, methodology: str | None = None) -> Verdict:
    """Chaining plus rule-id membership and state-family agreement."""
    name = "well-formed"
    methodology = methodology or trace.methodology
    rules = RULE_TABLES.get(methodology) or BASIC_RULES.get(methodology)
    if rules is None:
        return Verdict(name, False, f"unknown methodology {methodology!r}")
    broken = check_chaining(trace)
    if broken is not None:
        return Verdict(name, False, "state chain broken", broken)
    for ev in trace:
        spec = rules.get(ev.rule)
        if spec is None:
            return Verdict(name, False, f"unknown rule {ev.rule}", ev.seq)
        src = _family(ev.from_state)
        legal_sources = (spec.source,)
        if methodology == "pdfd" and ev.rule == "PD8":
            legal_sources = PDFD_PD8_SOURCES
        if methodology == "tle" and ev.rule == "TLE8":
            legal_sources = TLE8_SOURCES
        if src not in legal_sources:
            return Verdict(name, False, f"{ev.rule} fired from {src}", ev.seq)
        if _family(ev.to_state) not in spec.targets:
            return Verdict(name, False, f"{ev.rule} targeted {ev.to_state}", ev.seq)
    return Verdict(name, True)


# -- rule legality against payloads and folded statuses --------------------------


def _attempts(payload: dict[str, Any]) -> dict[int, int]:
    return {int(k): int(v) for k, v in payload["attempts"].items()}


def check_rule_legality(trace: Trace, methodology: str | None = None) -> Verdict:
    """Re-evaluate each hybrid rule's condition from the event payloads."""
    name = "rule-legality"
    methodology = methodology or trace.methodology
    if methodology not in RULE_TABLES:
        return Verdict(name, True, "basic machine: covered by well-formedness")
    wf = check_well_formed(trace, methodology)
    if not wf.ok:
        return Verdict(name, False, wf.detail, wf.first_violation_seq)
    ctx = context_of(trace, methodology)
    prev_payload: dict[str, Any] | None = None
    try:
        for ev, statuses, _prior in fold_statuses(trace):
            problem = _legality_problem(ev, prev_payload, statuses, ctx)
            if problem:
                return Verdict(name, False, problem, ev.seq)
            prev_payload = ev.payload
    except StatusFoldError as err:
        return Verdict(name, False, err.detail, err.seq)
    return Verdict(name, True)


def _legality_problem(
    ev: TraceEvent,
    prev_payload: dict[str, Any] | None,
    statuses: dict[int, int],
    ctx: TraceContext,
) -> str | None:
    rule = ev.rule
    p = ev.payload
    attempts = _attempts(p)
    failing = p.get("failing", [])
    level = p.get("level")

    def attempts_pre(l: int) -> int:
        if prev_payload is None:
            return 0
        return _attempts(prev_payload).get(l, 0)

    backtracks = {"PD2a", "PD3c", "PD4b", "PD6a", "PB3", "PB3a2", "PB7a"}
    if rule in backtracks:
        j = int(p["j"])
        if not failing:
            return f"{rule} without failing nodes"
        if not 1 <= j <= int(level):
            return f"{rule} origin {j} outside [1, {level}]"
        if attempts.get(j, 0) != attempts_pre(j) + 1:
            return f"{rule} must burn exactly one attempt at level {j}"
        if attempts.get(j, 0) > ctx.r_max:
            return f"{rule} exceeded the attempt cap"
    if rule in ("PD3a", "PB5"):
        j = int(p["j"])
        end = int(p["range_end"])
        if not j <= end:
            return f"{rule} progressed past the episode range"
        if attempts.get(j, 0) != attempts_pre(j) + 1:
            return f"{rule} must burn exactly one attempt at level {j}"
    if rule in ("PD3b", "PB6"):
        if int(p["level"]) != int(p["range_end"]):
            return f"{rule} before the episode range was complete"
    if rule == "PD2b":
        i = int(level)
        k_i = ctx.k_thresholds.get(i, len(ctx.level_ids(i)))
        done = sum(1 for n in ctx.level_ids(i) if statuses.get(n) == 2)
        if done < k_i:
            return f"advance from level {i} with {done} finalized < K={k_i}"
        if failing:
            return "advance with failing nodes"
    if rule == "PD4":
        i = int(level)
        if i != ctx.max_level and ctx.level_ids(i + 1):
            return "bottom-up entry with a non-empty next level"
    if rule in ("PD7", "PB8"):
        if any(v != 2 for v in statuses.values()):
            return f"{rule} with unfinalized nodes"
        if int(level) != ctx.max_level:
            return f"{rule} before the last level"
    if rule in ("PD6", "PB7"):
        if int(level) >= ctx.max_level:
            return f"{rule} beyond the last level"
        if failing:
            return f"{rule} with failing nodes"
    if rule == "PB4a":
        i = int(level)
        if i >= ctx.max_level:
            return "pattern derivation at the last level"
        if not p.get("next_pattern"):
            return "pattern derivation with no children"
        if any(statuses.get(n) != 2 for n in ctx.level_ids(i)):
            return "pattern derivation from unfinalized nodes"
    if rule in ("PD8", "PB9") and p.get("reason") == "refinement_exhausted":
        j = int(p["level"])
        if attempts.get(j, 0) < ctx.r_max:
            return f"{rule} with remaining budget at level {j}"
    return None


# -- measure descent --------------------------------------------------------------


def _delta_ok(kind: Delta, pre: int, post: int) -> bool:
    if kind is Delta.EQ:
        return post == pre
    if kind is Delta.DOWN:
        return post < pre
    if kind is Delta.UP:
        return post > pre
    if kind is Delta.NONINC:
        return post <= pre
    return True


def check_measure_descent(trace: Trace, methodology: str | None = None) -> Verdict:
    """Strict lexicographic descent on every non-terminal transition, with
    per-component deltas matching the rule's expected pattern, and recorded
    measures agreeing with recomputation.

    The monitor counts unfinalized nodes and unvisited nodes per level
    itself, from the folded status changes, and never trusts the engine's
    counters."""
    name = "measure-descent"
    methodology = methodology or trace.methodology
    rules = RULE_TABLES.get(methodology)
    if rules is None:
        return Verdict(name, True, "no measure defined for basic machines")
    ctx = context_of(trace, methodology)
    try:
        return _descent(name, trace, rules, ctx)
    except StatusFoldError as err:
        return Verdict(name, False, err.detail, err.seq)


def _descent(name: str, trace: Trace, rules: dict[str, RuleSpec], ctx: TraceContext) -> Verdict:
    level_of = {n: k for k, ids in ctx.levels.items() for n in ids}
    unfinalized = 0
    # Nodes the status map lacks count as unvisited, so every level starts full.
    unvisited = {k: len(ids) for k, ids in ctx.levels.items()}
    prev_measure: Measure | None = None
    for ev, statuses, prior in fold_statuses(trace):
        for n, old in prior.items():
            new = statuses.get(n)
            unfinalized += (new is not None and new != 2) - (old is not None and old != 2)
            k = level_of.get(n)
            if k is not None:
                unvisited[k] += (not new) - (not old)
        spec = rules.get(ev.rule)
        if spec is None:
            return Verdict(name, False, f"unknown rule {ev.rule}", ev.seq)
        recomputed = measure_with_counts(ev.payload, ctx, unfinalized, unvisited)
        if ev.measure_post is not None and tuple(ev.measure_post) != recomputed:
            return Verdict(
                name,
                False,
                f"recorded post-measure {ev.measure_post} != recomputed {recomputed}",
                ev.seq,
            )
        if prev_measure is not None and ev.measure_pre is not None:
            if tuple(ev.measure_pre) != prev_measure:
                return Verdict(name, False, "measure chain broken", ev.seq)
        if spec.kind == "step":
            pre = tuple(ev.measure_pre or ())
            post = tuple(ev.measure_post or ())
            if len(pre) != 4 or len(post) != 4:
                return Verdict(name, False, "missing measure snapshot", ev.seq)
            if not post < pre:
                return Verdict(
                    name, False, f"{ev.rule} did not decrease M: {pre} -> {post}", ev.seq
                )
            assert spec.deltas is not None
            for idx, kind in enumerate(spec.deltas):
                if not _delta_ok(kind, pre[idx], post[idx]):
                    return Verdict(
                        name,
                        False,
                        f"{ev.rule} component k{idx + 1} broke pattern "
                        f"{kind.value}: {pre[idx]} -> {post[idx]}",
                        ev.seq,
                    )
        prev_measure = recomputed
    return Verdict(name, True)


def classify_rules(methodology: str) -> dict[str, str]:
    """Terminal/non-terminal/initial classification per rule id."""
    return {r: s.kind for r, s in RULE_TABLES[methodology].items()}


# -- bounded refinement -------------------------------------------------------------


def check_bounded_refinement(trace: Trace, r_max: int | None = None) -> Verdict:
    name = "bounded-refinement"
    ctx = context_of(trace)
    cap = r_max if r_max is not None else ctx.r_max
    total = 0
    prev: dict[int, int] = {}
    for ev in trace:
        attempts = _attempts(ev.payload)
        for l, c in attempts.items():
            if c > cap:
                return Verdict(
                    name, False, f"attempts[{l}]={c} exceeds cap {cap}", ev.seq
                )
            inc = c - prev.get(l, 0)
            if inc < 0:
                return Verdict(name, False, f"attempts[{l}] decreased", ev.seq)
            total += inc
        prev = attempts
    if total > ctx.max_level * cap:
        return Verdict(
            name,
            False,
            f"total increments {total} exceed levels x cap = {ctx.max_level * cap}",
            trace.events[-1].seq if trace.events else None,
        )
    return Verdict(name, True, f"max total increments {total}")


# -- finalization invariance -----------------------------------------------------------


def check_finalization(trace: Trace) -> Verdict:
    """Once a node's committed status is FINALIZED, no later event may change
    it (a full status map that drops the node changes it too)."""
    name = "finalization-invariance"
    finalized = 0
    try:
        for ev, statuses, prior in fold_statuses(trace):
            for n, old in prior.items():
                if old == 2:
                    return Verdict(name, False, f"node {n} left FINALIZED", ev.seq)
                if statuses.get(n) == 2:
                    finalized += 1
    except StatusFoldError as err:
        return Verdict(name, False, err.detail, err.seq)
    return Verdict(name, True, f"{finalized} nodes finalized")


# -- deadlock freeness --------------------------------------------------------------


@dataclass
class _ForkPoint:
    decisions: list[bool]
    cursor: int = 0
    overflow_default: bool = False


class _ForkingScenario(Scenario):
    """Scenario that replays a fixed pass/fail decision prefix, then passes.

    Used to enumerate every reachable branching of a machine run."""

    def __init__(self, base: Scenario, decisions: list[bool], failing_pool: dict[int, list[int]]):
        super().__init__(
            r_max=base.r_max,
            k_thresholds=dict(base.k_thresholds),
            trace_origin=base.trace_origin,
        )
        self._decisions = decisions
        self._cursor = 0
        self.queries = 0
        self._pool = failing_pool

    def failing_nodes(self, phase, index, attempt, candidates):
        self.queries += 1
        if self._cursor < len(self._decisions):
            fail = self._decisions[self._cursor]
            self._cursor += 1
        else:
            fail = False
        if not fail:
            return set()
        pool = [n for n in candidates if n in set(self._pool.get(index, candidates))]
        return set(pool or candidates)


def enumerate_runs(
    runner: Callable[[Scenario], Any],
    base: Scenario,
    max_depth: int = 64,
) -> tuple[list[Any], int]:
    """Run the machine under every pass/fail decision sequence (bounded).

    Returns (results, distinct runs)."""
    results = []
    stack: list[list[bool]] = [[]]
    seen_prefixes: set[tuple[bool, ...]] = set()
    while stack:
        prefix = stack.pop()
        key = tuple(prefix)
        if key in seen_prefixes:
            continue
        seen_prefixes.add(key)
        sc = _ForkingScenario(base, prefix, {})
        result = runner(sc)
        results.append(result)
        # Fork deeper on every query answered by the default (pass).
        if len(prefix) < max_depth and sc.queries > len(prefix):
            stack.append(prefix + [True])
            stack.append(prefix + [False])
    return results, len(results)


def check_deadlock_freeness(
    methodology: str,
    hierarchy: Hierarchy | None = None,
    r_max: int = 1,
) -> Verdict:
    """Static rule coverage plus bounded exhaustive run enumeration.

    Statically, every non-terminal state family needs an outgoing rule and
    the only sink families are T and S5.  When a hierarchy is supplied, all
    validation-outcome assignments are enumerated and every run must end in
    T or S5 with a legal, measure-decreasing trace."""
    name = f"deadlock-freeness[{methodology}]"
    rules = RULE_TABLES[methodology]
    sources = {s.source for s in rules.values()}
    targets = {t for s in rules.values() for t in s.targets}
    families = sources | targets
    for fam in families:
        if fam in ("T", "S5"):
            continue
        if fam not in sources:
            return Verdict(name, False, f"state family {fam} has no outgoing rule")
    sinks = {f for f in families if f not in sources}
    if sinks - {"T", "S5"}:
        return Verdict(name, False, f"unexpected sink states {sinks - {'T', 'S5'}}")

    if hierarchy is not None:
        from .hybrid_machines import run_pbfd, run_pdfd

        run = run_pdfd if methodology == "pdfd" else run_pbfd
        base = Scenario(r_max=r_max, trace_origin=TraceOriginStrategy.fixed(1))

        def runner(sc: Scenario):
            return run(hierarchy, sc)

        results, n = enumerate_runs(runner, base)
        for res in results:
            if res.outcome not in ("T", "S5"):
                return Verdict(name, False, f"run ended in {res.outcome}")
            for chk in (check_well_formed, check_measure_descent):
                v = chk(res.trace, methodology)
                if not v.ok:
                    return Verdict(name, False, f"enumerated run: {v.detail}", v.first_violation_seq)
        return Verdict(name, True, f"{n} enumerated runs, all reached T or S5")
    return Verdict(name, True, "static rule coverage only")


def run_all_checks(
    trace: Trace, methodology: str | None = None, r_max: int | None = None
) -> list[Verdict]:
    methodology = methodology or trace.methodology
    out = [check_well_formed(trace, methodology)]
    if methodology in RULE_TABLES:
        out.append(check_rule_legality(trace, methodology))
        out.append(check_measure_descent(trace, methodology))
        out.append(check_bounded_refinement(trace, r_max))
        out.append(check_finalization(trace))
    return out
