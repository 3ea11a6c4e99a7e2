"""Golden traces: the JSONL bytes every machine writes are pinned by SHA-256.

These hashes show that the emitted traces (labels, payloads, rule
sequence) stay exactly what they were.  A hybrid event is its labels, its
payload fields and its statuses: the engine's state snapshot (``phase``,
``i``, ``j``, ``i_orig``, ``origin_phase``) and its recorded
``measure_pre``/``measure_post`` are no longer written, and the hybrid
pins are the earlier pinned bytes with those seven keys taken out
(``tests/data/*_mvp_format2_snapshot.jsonl`` keep two replays written
with them).  The
hybrid machines write delta-encoded statuses (trace format 2): their
``GOLDEN`` pins cover the written trace read back and expanded to a full
status map per event by the monitors' fold, which is the earlier format's
bytes, so the deltas lose nothing; ``GOLDEN_FORMAT2`` pins the bytes as
written.  ``GOLDEN_SCRIPTED`` pins both forms for scripted hybrid runs that
take the failure and dead-end rules the seeded runs never reach.
"""

import hashlib
import random

import pytest

from treeflow.basic_machines import Dag, run_bfd, run_cdd, run_dad, run_dfd
from treeflow.csp import check_csp_conformance
from treeflow.fixtures import (
    geo_hierarchy,
    pbfd_mvp_scenario,
    pdfd_mvp_scenario,
    perfect_tree,
    visited_places_hierarchy,
)
from treeflow.hierarchy import Hierarchy, load_hierarchy
from treeflow.hybrid_machines import run_pbfd, run_pdfd
from treeflow.scenario import CddScript, Scenario, TraceOriginStrategy
from treeflow.trace import StatusFold, Trace
from treeflow.verify import RULE_TABLES, run_all_checks

HYBRID = ("pdfd", "pbfd")


def uneven_tree(seed: int, level_sizes=(1, 8, 60, 300, 700)) -> Hierarchy:
    """Each node picks a random parent on the level above, so fanouts are
    uneven and some inner nodes are leaves."""
    rng = random.Random(seed)
    rows: list[dict] = []
    parents: list[int] = []
    fanout: dict[int, int] = {}
    for depth, count in enumerate(level_sizes, start=1):
        level = []
        for _ in range(count):
            pid = rng.choice(parents) if parents else None
            ci = fanout.get(pid, 0)
            fanout[pid] = ci + 1
            level.append(len(rows))
            rows.append({"id": len(rows), "name": f"n{len(rows)}", "name_type_id": depth,
                         "width_class": "int32", "parent_id": pid, "child_index": ci,
                         "level": depth})
        parents = level
    for row in rows:
        n = fanout.get(row["id"], 0)
        row["width_class"] = "int32" if n <= 32 else ("int64" if n <= 64 else f"var:{n}")
    return load_hierarchy(rows)


def _hybrid_scenario(h: Hierarchy, seed: int) -> Scenario:
    return Scenario(r_max=3, trace_origin=TraceOriginStrategy.fixed(2), seed=seed,
                    random_failure_rate=2.0 / len(h))


def _cdd_scenario(h: Hierarchy) -> Scenario:
    ids = sorted(h.nodes)
    return Scenario(
        r_max=3,
        cdd=CddScript(test_failures={ids[1]: 1}, feedback_cycles={ids[2]: 1},
                      refine_iterations={ids[1]: 2, ids[2]: 3}),
        increments=[[n.id for n in h.level(k)] for k in h.levels()],
    )


def _trace(machine: str, h: Hierarchy, hybrid: dict[str, Scenario]):
    if machine == "pdfd":
        return run_pdfd(h, hybrid["pdfd"]).trace
    if machine == "pbfd":
        return run_pbfd(h, hybrid["pbfd"]).trace
    if machine == "dad":
        extend = sorted(h.nodes)[1::max(1, len(h) // 3)][:3]
        return run_dad(Dag.from_hierarchy(h),
                       Scenario(dad_missing_deps={v: [f"ext{v}"] for v in extend}))
    if machine == "dfd":
        return run_dfd(h)
    if machine == "bfd":
        return run_bfd(h)
    return run_cdd(sorted(h.nodes), 3, _cdd_scenario(h))


def _inputs(name: str) -> tuple[Hierarchy, dict[str, Scenario]]:
    """The tree and its hybrid scenarios.  The two bundled replay profiles
    cover the completion sweep (PD5-PD7, PB7-PB8); the seeded failures
    cover exhaustion and path-less failures."""
    if name == "geo":
        h = geo_hierarchy()
        return h, {"pdfd": _hybrid_scenario(h, 11), "pbfd": pbfd_mvp_scenario()}
    if name == "visited":
        return visited_places_hierarchy(), {"pdfd": pdfd_mvp_scenario()}
    h = uneven_tree(2026)
    return h, {"pdfd": _hybrid_scenario(h, 11), "pbfd": _hybrid_scenario(h, 23)}


GOLDEN = {
    "geo:bfd": "463a45efa40b996a76827ec91d16fee2699469cf410c7bd8286000b62307dd5a",
    "geo:cdd": "b3b418f473592aad9df5adb3c33c5a65d62a0d4c6ac41a4f2ef3dd66f4f2e308",
    "geo:dad": "bc466a99627481a3615584f8e310f7cc55a56c4bb90ad96c114282ee8bb51100",
    "geo:dfd": "0d2b5b951e50c590da2957bfcc68195ed9630c4fbd2d934d0083465243e0ecb8",
    "geo:pbfd": "689ce7de05360dfc3a393e900cb167d80dc5bb76c44097e3414168897ab0648b",
    "geo:pdfd": "6192e41b4f16b651cdcc21ca476c3e5a315285c8799514ea974c2c2f18677314",
    "uneven:bfd": "8887861120f580519e3531641f7b4a231edb7554bcfc5f002403a8b90226e4f9",
    "uneven:cdd": "7b2d284dc2d7be68db3570e3d9a5c26bf301a48db45a25a73222e4caa00e5511",
    "uneven:dad": "f74491c8b3b26c2bd6571eb8f89ea4f06c9a58926cc9123c0561fce50a79c13c",
    "uneven:dfd": "d63db88c964cf8039669313b5a12196111ef8971fe39df4e24a864455523a477",
    "uneven:pbfd": "21f7d8b0888228e9a6529b5c5401bc2f10aa907dc2b23ea96d62394f98f4a50f",
    "uneven:pdfd": "cc0adb47e1f5b5cbd3b665a41df2cf48e961a2ea03af821916ce592b6a2f1dcb",
    "visited:pdfd": "7832f22f81c986597e739ed59ec9a78e303709982398c4e5f30280e12a6c1f61",
}


GOLDEN_FORMAT2 = {
    "geo:pbfd": "2cad859e33321c1798f341d344912f2edd8286e01483a76b4a6e814d569e3529",
    "geo:pdfd": "828302ecfd9e6fc3b056408afc97d1640aeb23b1b1f8c606e2cbaadbd83bb9eb",
    "uneven:pbfd": "c3321f9cae63cb1c5c2369297620dfed8dd9870b836a4592ea5b53129a6d61d9",
    "uneven:pdfd": "8494cadbf1945afb2ae08bde93f03a7680d926a731abceaa59935e89d413290f",
    "visited:pdfd": "b2f614acf75dfc976d8d8c49799ed2fb3d253b3efff96a85f8b7132288ccf57c",
}


def _full_snapshots(trace: Trace) -> Trace:
    """The trace with each event's folded status map written out in full,
    as the earlier full-snapshot format carried it."""
    events, fold = [], StatusFold()
    for ev in trace:
        fold.step(ev)
        payload = {k: v for k, v in ev.payload.items()
                   if k not in ("status_changes", "trace_format")}
        payload["statuses"] = {str(n): s for n, s in fold.statuses.items()}
        events.append(ev._replace(payload=payload))
    return Trace(trace.methodology, events)


def _sha256(trace: Trace, path) -> str:
    trace.write_jsonl(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_trace_bytes_match_golden_hash(key, tmp_path):
    tree, machine = key.split(":")
    trace = _trace(machine, *_inputs(tree))
    path = tmp_path / "trace.jsonl"
    if machine in HYBRID:
        trace.write_jsonl(path)
        trace = _full_snapshots(Trace.read_jsonl(path, machine))
    assert _sha256(trace, tmp_path / "hashed.jsonl") == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_FORMAT2))
def test_format2_bytes_match_golden_hash(key, tmp_path):
    tree, machine = key.split(":")
    trace = _trace(machine, *_inputs(tree))
    assert _sha256(trace, tmp_path / "trace.jsonl") == GOLDEN_FORMAT2[key]


def test_golden_set_covers_every_machine_on_both_trees():
    machines = ("bfd", "cdd", "dad", "dfd", "pbfd", "pdfd")
    expected = [f"{t}:{m}" for t in ("geo", "uneven") for m in machines] + ["visited:pdfd"]
    assert sorted(GOLDEN) == sorted(expected)
    assert sorted(GOLDEN_FORMAT2) == sorted(k for k in expected if k.split(":")[1] in HYBRID)


def _scripted(name: str) -> Trace:
    """Scripted runs on a seven-node tree, one per group of failure paths:
    a completion-sweep failure that backtracks (PD6a) and one with no origin
    (PD6b); a failing refinement retry (PB3a2) followed by a completion
    failure with no origin (PB7b); a pattern failure with no origin (PB3c)."""
    h = perfect_tree(2, 3)
    level = {k: {n.id for n in h.level(k)} for k in h.levels()}
    if name == "top-down:pdfd":
        return run_pdfd(h, Scenario(
            r_max=3, trace_origin=TraceOriginStrategy.scripted_map({2: 1}),
            validation_script={("top_down", 2, 1): level[2], ("top_down", 3, 1): level[3]},
        )).trace
    if name == "refine:pbfd":
        return run_pbfd(h, Scenario(
            r_max=3, trace_origin=TraceOriginStrategy.scripted_map({2: 1}),
            validation_script={("pattern", 2, 1): level[2], ("refine", 1, 1): level[1],
                               ("top_down", 3, 1): level[3]},
        )).trace
    return run_pbfd(h, Scenario(
        r_max=3, trace_origin=TraceOriginStrategy.scripted_map({}),
        validation_script={("pattern", 2, 1): level[2]},
    )).trace


# key -> (sha256 of the expanded format-1 bytes, sha256 of the written bytes)
GOLDEN_SCRIPTED = {
    "pattern:pbfd": (
        "16ae61f1b82289eafa1b49501630e3b6d3c4637a1d028ffb35e8d5ab5783dbae",
        "c3a3092f39a9aac6f59cd9604c67fd42b5eda285534a72594ce4ff2b372aee5e",
    ),
    "refine:pbfd": (
        "4aca5232000341a638f0556b676bc0d72f6bf4bf906b3b2cd792504bad13d67b",
        "afcfb4e2a44d006c8e2b7c357987e4bedefaaa9166d1e2f0799c2f1d42436efb",
    ),
    "top-down:pdfd": (
        "a847d8a779c62927d6eee2ad4e3133a517e33101e2f110254357be9078b9337b",
        "92242738ede916b0bbe4979f424167f437a60d64ef28abb1854a0dd25867f10a",
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_SCRIPTED))
def test_scripted_failure_paths_match_golden_hashes(key, tmp_path):
    trace = _scripted(key)
    written = _sha256(trace, tmp_path / "trace.jsonl")
    expanded = _full_snapshots(Trace.read_jsonl(tmp_path / "trace.jsonl", trace.methodology))
    assert (_sha256(expanded, tmp_path / "hashed.jsonl"), written) == GOLDEN_SCRIPTED[key]
    verdicts = run_all_checks(trace) + [check_csp_conformance(trace)]
    assert [v.line() for v in verdicts if not v.ok] == []


def test_golden_traces_fire_every_hybrid_rule_the_engines_take():
    """PB2a and PB3a3 are process-only rules: the breadth-led process
    allows them, and the engine never takes them."""
    fired: dict[str, set[str]] = {m: set() for m in HYBRID}
    for key in GOLDEN_FORMAT2:
        tree, machine = key.split(":")
        fired[machine] |= set(_trace(machine, *_inputs(tree)).rules())
    for key in GOLDEN_SCRIPTED:
        fired[key.split(":")[1]] |= set(_scripted(key).rules())
    for machine in HYBRID:
        assert fired[machine] == set(RULE_TABLES[machine]) - {"PB2a", "PB3a3"}
