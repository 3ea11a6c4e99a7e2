"""The verified-pipeline workloads: one op runs one methodology on one
hierarchy with the calls ``treeflow run`` and ``treeflow verify --check all``
make, and checks every verdict.

pipeline-large runs all six machines on trees of 10^3 to 4*10^3 nodes, where
cost grows with node count.  pipeline-small runs them on about a hundred
trees of at most 50 nodes, plus bounded deadlock enumeration, where
per-event and per-call constants dominate.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from treeflow.basic_machines import Dag, run_bfd, run_cdd, run_dad, run_dfd
from treeflow.csp import check_csp_conformance
from treeflow.hierarchy import load_hierarchy
from treeflow.hybrid_machines import run_pbfd, run_pdfd
from treeflow.measure import trace_length_cap
from treeflow.scenario import CddScript, Scenario, TraceOriginStrategy
from treeflow.trace import Trace
from treeflow.verify import (
    check_bounded_refinement,
    check_deadlock_freeness,
    check_finalization,
    check_measure_descent,
    check_rule_legality,
    check_well_formed,
)

HYBRID = ("pdfd", "pbfd")
METHODOLOGIES = ("dad", "dfd", "bfd", "cdd", "pdfd", "pbfd")
HYBRID_RUNNERS = {"pdfd": run_pdfd, "pbfd": run_pbfd}

# pipeline-large: a fixed schedule of shapes (nodes per level), so every seed
# measures the same sizes; the seed varies the uneven shapes and scenarios.
# The largest tree validates without failures, so its full-snapshot traces,
# which set the peak memory, do not change length with the seed.
# Sizes spread from 1.1k to 3.9k nodes keep the op latencies dense around
# their median, so op_ms_p50 does not jump across a gap between op kinds.
LARGE_SHAPES = (
    ("perfect", (1, 5, 25, 125, 625, 3125), False),
    ("uneven", (1, 10, 100, 1000), True),
    ("perfect", (1, 3, 9, 27, 81, 243, 729), True),
    ("uneven", (1, 5, 30, 200, 1000), True),
    ("uneven", (1, 8, 60, 400, 1200), True),
    ("uneven", (1, 6, 36, 200, 700, 1500), True),
)
# pipeline-small: trees of at most SMALL_MAX_NODES nodes.  The refinement
# budget and failure rate are the acceptance fuzz's choices, dealt by tree
# index rather than drawn, so every seed gets the same mix of them.
SMALL_TREES = 100
SMALL_MAX_NODES = 50
SMALL_R_MAX = (1, 2, 5)
SMALL_FAILURE_RATES = (0.0, 0.02, 0.05, 0.2)


# -- inputs ----------------------------------------------------------------------


def width_for(fanout: int) -> str:
    if fanout <= 32:
        return "int32"
    return "int64" if fanout <= 64 else f"var:{fanout}"


def tree_rows(level_sizes, rng: random.Random | None = None) -> list[dict]:
    """Hierarchy rows with ``level_sizes[k]`` nodes at depth k+1.  Without
    ``rng`` the nodes of a level are dealt round-robin over the level above
    (a perfect tree when sizes are powers); with it each node picks a random
    parent, so fanouts are uneven and some inner nodes are leaves."""
    rows: list[dict] = []
    parents: list[dict] = []
    next_id = 0
    for depth, count in enumerate(level_sizes, start=1):
        level = []
        fanout: dict[int, int] = {}
        for k in range(count):
            parent = None
            if parents:
                parent = rng.choice(parents) if rng else parents[k % len(parents)]
            pid = None if parent is None else parent["id"]
            ci = fanout.get(pid, 0)
            fanout[pid] = ci + 1
            level.append({
                "id": next_id, "name": f"n{depth}_{k}", "name_type_id": depth,
                "width_class": "int32", "parent_id": pid, "child_index": ci,
                "level": depth,
            })
            next_id += 1
        for p in parents:
            p["width_class"] = width_for(fanout.get(p["id"], 0))
        rows.extend(level)
        parents = level
    return rows


def level_counts(rows: list[dict]) -> dict[int, int]:
    out: dict[int, int] = {}
    for r in rows:
        out[r["level"]] = out.get(r["level"], 0) + 1
    return dict(sorted(out.items()))


@dataclass
class TreeInput:
    """One hierarchy document and the scenarios its ops run under."""

    text: str
    nodes: int
    levels: dict[int, int]
    hybrid: Scenario
    dad: Scenario
    cdd: Scenario
    enumerate: bool = False


def _scenarios(rows: list[dict], rng: random.Random, large: bool, failures: bool = True,
               index: int = 0):
    nodes = len(rows)
    max_level = max(r["level"] for r in rows)
    if large:
        # About one failing node per full pass: several refinement episodes,
        # and both budget exhaustion (S5) and success (T) occur.  The budget,
        # rate and origin are fixed so that only the draws vary with the seed.
        r_max = 3
        rate = 1.0 / nodes if failures else 0.0
        origin = TraceOriginStrategy.fixed(2)
    else:
        # Depth cycles with period 4 (small_inputs), the rate with period
        # 16 and the budget with period 48, so the combinations spread
        # evenly over the trees.
        r_max = SMALL_R_MAX[(index // 16) % len(SMALL_R_MAX)]
        rate = SMALL_FAILURE_RATES[(index // 4) % len(SMALL_FAILURE_RATES)]
        origin = (
            TraceOriginStrategy.fixed(rng.randint(1, max_level))
            if rng.random() < 0.7
            else TraceOriginStrategy.dependency_min()
        )
    hybrid = Scenario(r_max=r_max, trace_origin=origin, seed=rng.randrange(2**31),
                      random_failure_rate=rate)
    ids = [r["id"] for r in rows if r["parent_id"] is not None]
    dad = Scenario(dad_missing_deps={v: [f"ext{v}"] for v in rng.sample(ids, min(3, len(ids)))})
    by_level: dict[int, list[int]] = {}
    for r in rows:
        by_level.setdefault(r["level"], []).append(r["id"])
    picks = rng.sample([r["id"] for r in rows], min(4, nodes))
    cdd = Scenario(
        r_max=3,
        cdd=CddScript(
            test_failures={picks[0]: 1},
            feedback_cycles={p: 1 for p in picks[1:2]},
            refine_iterations={p: rng.randint(1, 3) for p in picks[:2]},
        ),
        increments=[by_level[k] for k in sorted(by_level)],
    )
    return hybrid, dad, cdd


def _tree_input(rows: list[dict], rng: random.Random, large: bool,
                failures: bool = True, index: int = 0) -> TreeInput:
    hybrid, dad, cdd = _scenarios(rows, rng, large, failures, index)
    return TreeInput(json.dumps(rows), len(rows), level_counts(rows), hybrid, dad, cdd,
                     enumerate=not large)


def large_inputs(seed: int) -> list[TreeInput]:
    rng = random.Random(f"pipeline-large:{seed}")
    return [
        _tree_input(tree_rows(sizes, rng if kind == "uneven" else None), rng, True, failures)
        for kind, sizes, failures in LARGE_SHAPES
    ]


def small_inputs(seed: int) -> list[TreeInput]:
    """Level sizes drawn like the termination fuzz in the acceptance suite.
    Depth sets most of a tree's enumeration cost, so instead of drawing it,
    the trees cycle through 3, 4, 5 and 6 levels: every seed gets a quarter
    of each.  The budgets and failure rates are dealt the same way (see
    _scenarios); the widths, failure draws, refinement origins and scripted
    dad and cdd events vary with the seed."""
    rng = random.Random(f"pipeline-small:{seed}")
    out = []
    for i in range(SMALL_TREES):
        sizes, total = [1], 1
        for _ in range(2 + i % 4):
            width = min(rng.randint(1, max(1, (SMALL_MAX_NODES - total) // 2)), 8)
            sizes.append(width)
            total += width
        out.append(_tree_input(tree_rows(sizes), rng, large=False, index=i))
    return out


# -- ops -------------------------------------------------------------------------


@dataclass
class OpResult:
    methodology: str
    kind: str  # "run" or "enumerate"
    problems: list[str] = field(default_factory=list)
    events: int = 0
    trace_bytes: int = 0
    outcome: str | None = None
    attempts: dict[int, int] = field(default_factory=dict)
    run_seconds: float = 0.0


def _run_machine(tr, m: str, h, tree: TreeInput):
    if m in HYBRID:
        result = tr.call(f"hybrid_machines.run_{m}", HYBRID_RUNNERS[m], h, tree.hybrid)
        return result.trace, result.outcome, result.attempts, tree.hybrid.r_max
    if m == "dad":
        trace = tr.call("basic_machines.run_dad", lambda: run_dad(Dag.from_hierarchy(h), tree.dad))
        return trace, trace.final_state, {}, tree.dad.r_max
    if m == "cdd":
        trace = tr.call("basic_machines.run_cdd", run_cdd, sorted(h.nodes), tree.cdd.r_max, tree.cdd)
        return trace, trace.final_state, {}, tree.cdd.r_max
    runner = run_dfd if m == "dfd" else run_bfd
    trace = tr.call(f"basic_machines.run_{m}", runner, h)
    return trace, trace.final_state, {}, 1


def verified_run(tr, tree: TreeInput, m: str, trace_path: Path) -> OpResult:
    """``treeflow run`` then ``treeflow verify --check all`` on one tree."""
    h = tr.call("hierarchy.load", load_hierarchy, tree.text)
    t0 = time.perf_counter()
    trace, outcome, attempts, r_max = _run_machine(tr, m, h, tree)
    run_seconds = time.perf_counter() - t0
    tr.call("trace.write_jsonl", trace.write_jsonl, trace_path)
    back = tr.call("trace.read_jsonl", Trace.read_jsonl, trace_path, m)
    verdicts = [tr.call("verify.well_formed", check_well_formed, back, m)]
    if m in HYBRID:
        verdicts += [
            tr.call("verify.rule_legality", check_rule_legality, back, m),
            tr.call("verify.measure_descent", check_measure_descent, back, m),
            tr.call("verify.bounded_refinement", check_bounded_refinement, back, None),
            tr.call("verify.finalization", check_finalization, back),
            tr.call("verify.deadlock_static", check_deadlock_freeness, m),
        ]
    family = "hybrid" if m in HYBRID else "basic"
    verdicts.append(tr.call(f"csp.conformance_{family}", check_csp_conformance, back, m))
    res = OpResult(m, "run", events=len(trace), trace_bytes=os.path.getsize(trace_path),
                   outcome=outcome, attempts=dict(attempts), run_seconds=run_seconds)
    res.problems = [v.line() for v in verdicts if not v.ok]
    if len(back) != len(trace):
        res.problems.append(f"read back {len(back)} of {len(trace)} events")
    if outcome not in ("T", "S5"):
        res.problems.append(f"ended in {outcome}")
    cap = trace_length_cap(len(h), h.max_level, r_max)
    if len(trace) > cap:
        res.problems.append(f"{len(trace)} events exceed the cap {cap}")
    return res


def bounded_enumeration(tr, tree: TreeInput, m: str) -> OpResult:
    """Every pass/fail assignment of one hybrid machine, budget 1."""
    h = tr.call("hierarchy.load", load_hierarchy, tree.text)
    verdict = tr.call("verify.deadlock_freeness", check_deadlock_freeness, m, h, r_max=1)
    return OpResult(m, "enumerate", problems=[] if verdict.ok else [verdict.line()])


def tree_ops(tree: TreeInput) -> list[tuple[str, str]]:
    ops = [("run", m) for m in METHODOLOGIES]
    if tree.enumerate:
        ops += [("enumerate", m) for m in HYBRID]
    return ops


def run_op(tr, tree: TreeInput, kind: str, m: str, trace_path: Path) -> OpResult:
    if kind == "run":
        return verified_run(tr, tree, m, trace_path)
    return bounded_enumeration(tr, tree, m)


# -- session ---------------------------------------------------------------------


class PipelineSession:
    """The loaded input set.  A chunk is one op, so the host probes fall
    between ops; a cycle runs every tree's ops, tree by tree."""

    def __init__(self, trees: list[TreeInput], tmp: Path, tr):
        for tree in trees:  # set-up: every input document is loaded once
            tr.call("hierarchy.load", load_hierarchy, tree.text)
        self.trees = trees
        self.trace_path = tmp / "trace.jsonl"
        self.stats = PipelineStats()

    def cycle(self):
        for tree in self.trees:
            for kind, m in tree_ops(tree):
                yield [(tree, kind, m)]

    def run_chunk(self, ops, tr, latencies) -> list:
        perf = time.perf_counter
        out = []
        for tree, kind, m in ops:
            a = perf()
            try:
                res = tr.call("op", run_op, tr, tree, kind, m, self.trace_path)
            except Exception as exc:  # an op that raises is a failed op
                res = exc
            latencies.append(perf() - a)
            out.append(res)
        return out

    def check(self, ops, results: list, tr) -> list[str]:
        return self.stats.add(results, tr)

    def audit(self, tr) -> dict:
        return {"problems": []}

    def report(self) -> dict:
        return self.stats.report()


@dataclass
class PipelineStats:
    ops: dict[str, int] = field(default_factory=dict)
    outcomes: dict[str, int] = field(default_factory=dict)
    events: int = 0
    trace_bytes: int = 0
    refinement_attempts: int = 0

    def add(self, results: list, tr) -> list[str]:
        problems = []
        for res in results:
            if isinstance(res, Exception):
                problems.append(f"op raised {type(res).__name__}: {res}")
                continue
            key = f"{res.kind}:{res.methodology}"
            self.ops[key] = self.ops.get(key, 0) + 1
            if res.problems:
                problems.append(f"{key}: " + "; ".join(res.problems))
            if res.kind != "run":
                continue
            self.events += res.events
            self.trace_bytes += res.trace_bytes
            tr.count("trace.bytes", res.trace_bytes)
            tr.count("trace.events", res.events)
            if res.methodology in HYBRID:
                self.outcomes[res.outcome] = self.outcomes.get(res.outcome, 0) + 1
                attempts = sum(res.attempts.values())
                self.refinement_attempts += attempts
                tr.count("hybrid_machines.events", res.events)
                tr.count("hybrid_machines.refinement_attempts", attempts)
                tr.count("hybrid_machines.outcome_t", 1.0 if res.outcome == "T" else 0.0)
                tr.count("hybrid_machines.us_per_event", res.run_seconds * 1e6 / res.events)
        return problems

    def report(self) -> dict:
        return {
            "op_mix": dict(sorted(self.ops.items())),
            "hybrid_outcomes": dict(sorted(self.outcomes.items())),
            "refinement_attempts": self.refinement_attempts,
            "events": self.events,
            "trace_bytes": self.trace_bytes,
            "trace_bytes_per_event": self.trace_bytes / self.events if self.events else None,
        }
