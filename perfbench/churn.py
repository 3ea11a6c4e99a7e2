"""The store-churn workload: one closed-loop client sends store operations
for uniformly drawn subjects against a pre-populated selection store.

The generator keeps its own record of every subject's set bits, so it can
aim selects at live parents (or, for a stated share, at orphans) and knows
every lookup's answer.  A fixed sample of subjects is replayed into the
normalized-store oracle after the run.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

from pipeline import level_counts, tree_rows
from treeflow.hierarchy import load_hierarchy
from treeflow.oracle import NormalizedStore
from treeflow.tle import (
    LOOKUP_STEP_BUDGET,
    MIN_SELECTABLE_LEVEL,
    UPDATE_STEP_BUDGET,
    OrphanSelectionError,
    TleStore,
)

KINDS = ("lookup", "select", "deselect", "reset_subtree", "report_paths")
LOOKUP, SELECT, DESELECT, RESET, REPORT = range(5)
SPAN_NAMES = tuple(f"tle.{k}" for k in KINDS)
# The traffic is assumed, not measured: no trace of real store traffic
# exists.  Only the order of the shares is specified (mostly lookups, then
# selects, deselects, reset_subtree, and a small share of report_paths); the
# numbers themselves are unverified choices.
MIX = (0.60, 0.20, 0.12, 0.05, 0.03)
# Share of selects aimed at a node whose parent is not selected; the store
# must refuse them with OrphanSelectionError.  An unverified choice: the
# workload only has to contain a small, stated share of orphan selects.
ORPHAN_SHARE = 0.10
# Share of deselects aimed at any selectable node rather than a selected one;
# most land in units the subject never touched and allocate a record there.
BLIND_DESELECT_SHARE = 0.05
# Share of valid selects that start a new chain at the top selectable level;
# the rest select a child of a selected node.  This share and the one above
# were chosen for steadiness, not from traffic: both allocate records, and
# kept small the record count, which reset_subtree scans, grows slowly
# during a run, so a faster host that runs more ops does not face a larger
# store.
NEW_CHAIN_SHARE = 0.05
REFUSED = "refused"

CHURN_LEVELS = (1, 10, 100, 1000, 100_000)  # fanout 100 at level 4: var:100 columns
CHURN_SUBJECTS = 1000
CHAINS_PER_SUBJECT = 8
LEAVES_PER_CHAIN = 3
AUDIT_SUBJECTS = 32
# Each chunk holds exactly MIX's share of every kind (120, 40, 24, 10 and 6
# ops), in a seeded order.  Resets take most of the time, so a drawn mix
# whose reset share wanders by a tenth moves ops_per_s by several percent.
CHUNK_OPS = 200


def churn_rows(seed: int) -> list[dict]:
    """Nodes dealt round-robin over the level above; bit positions under
    each parent are a seeded permutation."""
    rng = random.Random(f"store-churn-rows:{seed}")
    rows = tree_rows(CHURN_LEVELS)
    by_parent: dict[int | None, list[dict]] = {}
    for row in rows:
        by_parent.setdefault(row["parent_id"], []).append(row)
    for siblings in by_parent.values():
        for row, ci in zip(siblings, rng.sample(range(len(siblings)), len(siblings))):
            row["child_index"] = ci
    return rows


class _Picks:
    """A set with O(1) add, remove and seeded uniform choice."""

    def __init__(self):
        self.items: list[int] = []
        self.pos: dict[int, int] = {}

    def add(self, x: int) -> None:
        if x not in self.pos:
            self.pos[x] = len(self.items)
            self.items.append(x)

    def discard(self, x: int) -> None:
        i = self.pos.pop(x, None)
        if i is None:
            return
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def __contains__(self, x: int) -> bool:
        return x in self.pos

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class ChurnInputs:
    text: str  # the hierarchy as JSON rows, as set-up loads it
    nodes: int
    seed: int
    subjects: list[int]
    populate: list[tuple[int, int]]  # (subject, node) selects, in order
    audit_subjects: list[int]
    levels: dict[int, int]


def _child_ids(h, node: int) -> list[int]:
    return [c.id for c in h.children(node)]


def churn_inputs(seed: int, rows: list[dict] | None = None, subjects: int = CHURN_SUBJECTS,
                 chains: int = CHAINS_PER_SUBJECT) -> ChurnInputs:
    """Rows and pre-population plan.  The hierarchy loaded here to plan the
    chains is dropped on return; set-up loads its own from the text."""
    rows = rows if rows is not None else churn_rows(seed)
    h = load_hierarchy(rows)
    top = [n.id for n in h.level(MIN_SELECTABLE_LEVEL)]
    rng = random.Random(f"store-churn:{seed}")
    populate = []
    for s in range(1, subjects + 1):
        chosen: set[int] = set()
        for _ in range(chains):
            node = rng.choice(top)
            chain = [node]
            while h.nodes[node].level < h.max_level - 1 and _child_ids(h, node):
                node = rng.choice(_child_ids(h, node))
                chain.append(node)
            leaves = _child_ids(h, node)
            chain += rng.sample(leaves, min(LEAVES_PER_CHAIN, len(leaves)))
            for n in chain:
                if n not in chosen:
                    chosen.add(n)
                    populate.append((s, n))
    return ChurnInputs(json.dumps(rows), len(rows), seed, list(range(1, subjects + 1)), populate,
                       list(range(1, min(AUDIT_SUBJECTS, subjects) + 1)), level_counts(rows))


class _Stream:
    """Seeded op generator tracking each subject's set bits, the same raw
    bits the store's orphan rule tests.  Tree shape comes from the
    session's loaded hierarchy."""

    def __init__(self, h, seed: int, subjects: list[int], populate: list[tuple[int, int]]):
        self.h = h
        self.top = [n.id for n in h.level(MIN_SELECTABLE_LEVEL)]
        # Selectable nodes whose parent is selectable too: orphan candidates.
        self.deep = [n.id for lv in h.levels() if lv > MIN_SELECTABLE_LEVEL for n in h.level(lv)]
        self.selectable = self.top + self.deep
        self.rng = random.Random(f"store-churn-ops:{seed}")
        self.subjects = subjects
        self.sel = {s: _Picks() for s in subjects}
        self.inner = {s: _Picks() for s in subjects}
        for s, n in populate:
            self._set(s, n)

    def _set(self, s: int, n: int) -> None:
        self.sel[s].add(n)
        if self.h.children(n):
            self.inner[s].add(n)

    def _clear(self, s: int, n: int) -> None:
        self.sel[s].discard(n)
        self.inner[s].discard(n)

    def chunk(self) -> list[tuple[int, int, int, object]]:
        kinds = [k for k, share in enumerate(MIX) for _ in range(round(share * CHUNK_OPS))]
        self.rng.shuffle(kinds)
        return [self.op(kind) for kind in kinds]

    def op(self, kind: int) -> tuple[int, int, int, object]:
        """(kind, subject, node, expected result)."""
        rng, h = self.rng, self.h
        s = rng.choice(self.subjects)
        sel, inner = self.sel[s], self.inner[s]
        if kind == LOOKUP:
            n = rng.choice(sel.items) if sel and rng.random() < 0.5 else rng.choice(self.selectable)
            return kind, s, n, n in sel
        if kind == SELECT:
            if rng.random() < ORPHAN_SHARE:
                for _ in range(100):
                    n = rng.choice(self.deep)
                    if h.nodes[n].parent_id not in sel:
                        return kind, s, n, REFUSED
            if inner and rng.random() >= NEW_CHAIN_SHARE:
                n = rng.choice(_child_ids(h, rng.choice(inner.items)))
            else:
                n = rng.choice(self.top)
            self._set(s, n)
            return kind, s, n, True
        if kind == DESELECT:
            if sel and rng.random() >= BLIND_DESELECT_SHARE:
                n = rng.choice(sel.items)
            else:
                n = rng.choice(self.selectable)
            self._clear(s, n)
            return kind, s, n, None
        if kind == RESET:
            n = rng.choice(inner.items) if inner else rng.choice(self.top)
            for x in [x for x in sel.items if x == n or any(a.id == n for a in h.ancestors(x))]:
                self._clear(s, x)
            return kind, s, n, None
        return kind, s, 0, None


class ChurnSession:
    """Set-up is the timed part: hierarchy load, store and schema build, and
    pre-population.  The op stream starts at the first cycle.  The session
    keeps no reference to the input text, so the caller can free it."""

    def __init__(self, inputs: ChurnInputs, tr):
        self.seed = inputs.seed
        self.subjects = inputs.subjects
        self.populate = inputs.populate
        self.h = tr.call("hierarchy.load", load_hierarchy, inputs.text)
        self.store = tr.call("tle.init", TleStore, self.h)
        tr.call("tle.populate", self._populate)
        self.audited = set(inputs.audit_subjects)
        self.log: dict[int, list[tuple[int, int, object]]] = {s: [] for s in self.audited}
        for s, n in inputs.populate:
            if s in self.audited:
                self.log[s].append((SELECT, n, True))
        self.kinds = [0] * len(KINDS)
        self.refused = 0
        self.stream = None

    def _populate(self) -> None:
        update = self.store.update
        for s, n in self.populate:
            update(s, n, True)

    def cycle(self):
        """One chunk of the stream, with the whole mix in it."""
        if self.stream is None:
            self.stream = _Stream(self.h, self.seed, self.subjects, self.populate)
        yield self.stream.chunk()

    def run_chunk(self, chunk, tr, latencies) -> list:
        store = self.store
        lookup, update = store.lookup, store.update
        reset, report = store.reset_subtree, store.report_paths
        perf = time.perf_counter
        tracing = tr.enabled
        out = []
        for kind, s, n, _expected in chunk:
            a = perf()
            try:
                if kind == LOOKUP:
                    r = lookup(s, n)
                elif kind == SELECT:
                    update(s, n, True)
                    r = True
                elif kind == DESELECT:
                    update(s, n, False)
                    r = None
                elif kind == RESET:
                    reset(s, n)
                    r = None
                else:
                    r = len(report(s))
            except OrphanSelectionError:
                r = REFUSED
            except Exception as exc:  # an op that raises is a failed op
                r = exc
            b = perf()
            latencies.append(b - a)
            out.append(r)
            if tracing:
                tr.record(SPAN_NAMES[kind], a, b)
        return out

    def check(self, chunk, results, tr) -> list[str]:
        problems = []
        for (kind, s, n, expected), r in zip(chunk, results):
            self.kinds[kind] += 1
            if r == REFUSED:
                self.refused += 1
            if s in self.audited and kind in (SELECT, DESELECT, RESET):
                self.log[s].append((kind, n, r))
            if isinstance(r, Exception):
                problems.append(f"{KINDS[kind]}({s}, {n}) raised {type(r).__name__}: {r}")
            elif kind in (LOOKUP, SELECT) and r != expected:
                problems.append(f"{KINDS[kind]}({s}, {n}) gave {r!r}, expected {expected!r}")
        return problems

    def audit(self, tr) -> dict:
        """Replay each sampled subject's ops into its own oracle and compare
        selection sets; then probe step counts on a fresh subject."""
        mismatches = []
        for s in sorted(self.audited):
            oracle = NormalizedStore(self.h)
            for kind, n, r in self.log[s]:
                if kind == SELECT:
                    try:
                        oracle.select(s, n)
                        refused = False
                    except OrphanSelectionError:
                        refused = True
                    if refused != (r == REFUSED):
                        mismatches.append(f"subject {s}: select {n} refusal differs")
                elif kind == DESELECT:
                    oracle.deselect(s, n)
                else:
                    oracle.reset_subtree(s, n)
            if oracle.selection_set(s) != self.store.selection_set(s):
                mismatches.append(f"subject {s}: selection sets differ")
        storage = self.store.storage_report(32)
        records = len(self.store.records)
        steps, step_problems = self._probe_steps()
        selects = self.kinds[SELECT]
        tr.count("oracle.audited_subjects", len(self.audited))
        tr.count("oracle.mismatches", len(mismatches))
        tr.count("tle.steps_per_lookup", steps["lookup"])
        tr.count("tle.steps_per_update", max(v for k, v in steps.items() if k != "lookup"))
        tr.count("tle.records", records)
        tr.count("tle.bits_per_selection", storage["tle_bits"] / storage["selected"])
        tr.count("tle.refused_share", self.refused / selects if selects else 0.0)
        return {
            "audited_subjects": len(self.audited),
            "problems": mismatches + step_problems,
            "steps": steps,
            "records": records,
            "bits_per_selection": storage["tle_bits"] / storage["selected"],
        }

    def _probe_steps(self):
        """Step counts of lookups and updates along sampled chains, on a
        subject id no op touched.  Lookups take exactly the lookup budget;
        updates stay within the update budget, one count per kind."""
        store, h = self.store, self.h
        top = [n.id for n in h.level(MIN_SELECTABLE_LEVEL)]
        rng = random.Random(f"store-churn-probe:{self.seed}")
        subject = max(self.subjects) + 1
        counts: dict[str, set[int]] = {"lookup": set(), "select_top": set(),
                                       "select_below": set(), "deselect": set()}

        def steps(fn, *args):
            before = store.counter.steps
            fn(*args)
            return store.counter.steps - before

        for _ in range(64):
            node = rng.choice(top)
            counts["select_top"].add(steps(store.update, subject, node, True))
            while h.children(node):
                node = rng.choice(_child_ids(h, node))
                counts["select_below"].add(steps(store.update, subject, node, True))
            counts["lookup"].add(steps(store.lookup, subject, node))
            counts["deselect"].add(steps(store.update, subject, node, False))
        store.reset_subtree(subject, top[0])
        problems = []
        if counts["lookup"] != {LOOKUP_STEP_BUDGET}:
            problems.append(f"lookup steps {sorted(counts['lookup'])} != {LOOKUP_STEP_BUDGET}")
        for kind, seen in counts.items():
            if len(seen) != 1:
                problems.append(f"{kind} steps vary: {sorted(seen)}")
            if kind != "lookup" and max(seen) > UPDATE_STEP_BUDGET:
                problems.append(f"{kind} steps {max(seen)} > {UPDATE_STEP_BUDGET}")
        flat = {k: max(v) for k, v in counts.items()}
        return flat, problems

    def report(self) -> dict:
        total = sum(self.kinds)
        selects = self.kinds[SELECT]
        return {
            "subjects": len(self.subjects),
            "populated_selections": len(self.populate),
            "op_mix": {k: c / total for k, c in zip(KINDS, self.kinds)} if total else {},
            "refused": self.refused,
            "refused_share_of_selects": self.refused / selects if selects else 0.0,
        }
