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
    "geo:pbfd": "14e7f2c7c9c165e0607fd4e6163ab3f7772021d69f0c19d413eb6a106ca199a2",
    "geo:pdfd": "c8470f241c1ed3831c3adb90739a0f323596205d1e5a6e45a8480d7e0c910cca",
    "uneven:bfd": "8887861120f580519e3531641f7b4a231edb7554bcfc5f002403a8b90226e4f9",
    "uneven:cdd": "7b2d284dc2d7be68db3570e3d9a5c26bf301a48db45a25a73222e4caa00e5511",
    "uneven:dad": "f74491c8b3b26c2bd6571eb8f89ea4f06c9a58926cc9123c0561fce50a79c13c",
    "uneven:dfd": "d63db88c964cf8039669313b5a12196111ef8971fe39df4e24a864455523a477",
    "uneven:pbfd": "d96aecb371cb02faf3c4d10fefd042eb99e6dc50e9f4ac450132f9b5560d2273",
    "uneven:pdfd": "f78767c95120c4f7766f5e372cc83c325e742c07ce8c7bc2fa099e780c904948",
    "visited:pdfd": "ff67c450b00ccf521b1adbe5959f10ee3c1d345efc40f157ce011602744704bc",
}


GOLDEN_FORMAT2 = {
    "geo:pbfd": "187385e80f1edc81beef1153b483473a7c0843e4e65ebd7833c8d15bf16a99fa",
    "geo:pdfd": "73600c35c0dc2494fc07286ace8084824b8c02c524e412f63b370101c0f9cffb",
    "uneven:pbfd": "70c71c212244cf0f9de17f2cd97e68b92e1744b3977b69c29a6fdf9570fe845e",
    "uneven:pdfd": "d919231f4c6fbe4edf874189b306968d9a9341a34944bc4aa8773f58eaf09787",
    "visited:pdfd": "a7159bad804732d84aa3d7b45e205f09c38d66b4080a0303047740ef0639e447",
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
        "d080fc55e96f4cc52f78ada2874b6efa945949e3fbcfd56f799460099eb37e6d",
        "d08e27d5f48a16f0dd773895bba4991ed83791f22073f9621fdcbbcf984c3d63",
    ),
    "refine:pbfd": (
        "9892c344dd2c3eeb651a7138ba0b91a675a492db3faf8bab8e960ef10eba58c7",
        "cd7d0bb3d3c986bfe1fc3b101a26daa49c61e07d354e5b25554cfffc2c954444",
    ),
    "top-down:pdfd": (
        "1118c5d4d310866f3f5ce748f848e67c572979b96b0ae4b9d5b9a0df49c20db2",
        "1ff38ac48d848b26b36f3d68f287dbbc1ddcc001098153ab57295dc257346cc2",
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
