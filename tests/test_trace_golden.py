"""Golden traces: the JSONL bytes every machine writes are pinned by SHA-256.

The engines keep incremental counters for speed; these hashes show that the
emitted traces (payload snapshots, measures, rule sequence) stay exactly
what the straightforward full-recompute implementation produced.  The
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
from treeflow.trace import Trace, fold_statuses
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
    "geo:pbfd": "eb050a3e7b63c58f7093ce15a8eb260f48fba3583e0fddd06454289dee769420",
    "geo:pdfd": "e28dfcb3c1875fe73ba3a1da04bcc38a5bf1d3039449e9403aa8ce2e5f1b7588",
    "uneven:bfd": "8887861120f580519e3531641f7b4a231edb7554bcfc5f002403a8b90226e4f9",
    "uneven:cdd": "7b2d284dc2d7be68db3570e3d9a5c26bf301a48db45a25a73222e4caa00e5511",
    "uneven:dad": "f74491c8b3b26c2bd6571eb8f89ea4f06c9a58926cc9123c0561fce50a79c13c",
    "uneven:dfd": "d63db88c964cf8039669313b5a12196111ef8971fe39df4e24a864455523a477",
    "uneven:pbfd": "dcde8fb4d1ab49fb5282dd52fcd924a9357cdcb74d992e383cd1179fcd75ef17",
    "uneven:pdfd": "81f7794cbd53c3ba3962fe3ba54cb74a1fc1080220b16d92440ea509077b2e1c",
    "visited:pdfd": "f05e9a0d028fe4324e014250d918abbaa75b2a1503eab2fc07d0c6f471ba3623",
}


GOLDEN_FORMAT2 = {
    "geo:pbfd": "48af02963daa74ee720e5a2451aa50a1d58aa2f38392d439ad7f516eb7a6e71b",
    "geo:pdfd": "5b78638dc420e2a80f1d797bf133b645b13caa353a962ea217de40e2d6039bda",
    "uneven:pbfd": "9beb4b8bfe57b7574a510f1fc2fb8132c574f7924b34000e7b7a2f7bc6e9193d",
    "uneven:pdfd": "5ff2c0bb8e2be8f34c589cce1b8389b06b5d1f51e1d367ab3bb652fc6085a5aa",
    "visited:pdfd": "f763f75ba842af319f515caaadd473c195701e20d1e843afbb5de4dbdf2ead97",
}


def _full_snapshots(trace: Trace) -> Trace:
    """The trace with each event's folded status map written out in full,
    as the earlier full-snapshot format carried it."""
    events = []
    for ev, statuses, _prior in fold_statuses(trace):
        payload = {k: v for k, v in ev.payload.items()
                   if k not in ("status_changes", "trace_format")}
        payload["statuses"] = {str(n): s for n, s in statuses.items()}
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
        "f6babef2b1027728b0bdfbdcb7ed98869224dba552cdcf7cd3406fb8e5a91610",
        "c5085c42e6098ab9b1a044d13028d05f308df010b03f5813917c1aa40e4b7459",
    ),
    "refine:pbfd": (
        "9e9debd000a6b4541c95f5adb3c1b96aa86fdefb38e48b558b31c4360a3b8465",
        "2755daaa563a1812f0d398d8b7c5c256707077dc4e9e73780e83c94a98940651",
    ),
    "top-down:pdfd": (
        "e2803c71ad0a2cb6b4e28471345bd5b13e929740b5498a8f6dcdbc24ddd692e1",
        "a92789748204c729e81938e54848519815d8ef45de99f897a759076405b22b90",
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
