"""Verdict pins for the CSP recognizers.

For every machine, on the GEO fixture and on a seeded uneven tree, the
annotated event sequence is mutated (every adjacent transposition, deletion
and duplication, sampled on long sequences, plus parameters forged as a
float and as a dotted string) and run through ``accept_events``; the trace
itself is mutated (events swapped, dropped, duplicated, rules and states
renamed, payload parameters forged or removed) and run through
``check_csp_conformance``.  The SHA-256 of the resulting lines is pinned,
so any change to what the recognizers accept or reject, where they reject,
or the verdict text shows here.  A raised exception is part of the pinned
behaviour.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from test_trace_golden import _inputs, _trace, uneven_tree
from treeflow.csp import (
    TABLE_SPECS,
    _alphabet,
    accept_events,
    annotate_trace,
    check_csp_conformance,
    make_recognizer,
    table,
)
from treeflow.fixtures import geo_hierarchy
from treeflow.tle import TleStore, TraversalPage, tle_traverse
from treeflow.trace import Trace, TraceEvent
from treeflow.verify import RULE_TABLES, Pick

MACHINES = ("bfd", "cdd", "dad", "dfd", "pbfd", "pdfd", "tle")
HYBRID = ("pdfd", "pbfd")

# Every payload key an annotator reads.
PAYLOAD_KEYS = (
    "node", "root", "level", "range_end", "backtrack_point", "subtree_root",
    "to", "component", "increment", "levels", "new_node", "refine_iterations",
    "reason", "L",
)
FORGED_VALUES = (1.5, "a.b", "x", None, -1, 7, "3", "", True, "2.3")
FORGED_PARAMS = ("1.5", "a.b")

# Above this many items, mutation positions are a seeded sample.
FULL_LIMIT = 120
SAMPLE = 16
FORGE_EVENTS_SHORT = 40
FORGE_EVENTS_LONG = 3


def _tle_trace(tree: str) -> Trace:
    if tree == "geo":
        store = TleStore(geo_hierarchy())
        pages = [TraversalPage((1,), {2: True}), TraversalPage((2,), {9: True})]
        return tle_traverse(store, 1, pages)
    h = uneven_tree(2026)
    # Select one node per level down a root-to-leaf path, one page per level.
    path = [next(n for n in h.level(4) if h.children(n.id))]
    while path[0].level > 2:
        path.insert(0, h.parent(path[0].id))
    path.append(h.children(path[-1].id)[0])
    pages = [TraversalPage((a.id,), {b.id: True}) for a, b in zip(path, path[1:])]
    return tle_traverse(TleStore(h), 1, pages)


def _golden_trace(key: str) -> Trace:
    tree, machine = key.split(":")
    if machine == "tle":
        return _tle_trace(tree)
    return _trace(machine, *_inputs(tree))


def _domain(machine: str, trace: Trace):
    return int(trace.events[0].payload["L"]) if machine in HYBRID else None


def _positions(rng: random.Random, n: int, limit: int = FULL_LIMIT, sample: int = SAMPLE):
    if n <= limit:
        return list(range(n))
    return sorted(rng.sample(range(n), sample))


def _event_mutants(events: list[str], rng: random.Random):
    n = len(events)
    for pos in _positions(rng, n - 1):
        swapped = list(events)
        swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
        yield f"swap {pos}", swapped
    for pos in _positions(rng, n):
        yield f"drop {pos}", events[:pos] + events[pos + 1:]
    for pos in _positions(rng, n):
        yield f"dup {pos}", events[:pos + 1] + events[pos:]
    for pos in _positions(rng, n):
        name = events[pos].split(".")[0]
        for param in FORGED_PARAMS:
            yield f"forge {pos} {param}", events[:pos] + [f"{name}.{param}"] + events[pos + 1:]


def _replace(trace: Trace, events) -> Trace:
    return Trace(trace.methodology, list(events))


def _trace_mutants(trace: Trace, rng: random.Random):
    evs = trace.events
    n = len(evs)
    yield "as is", trace
    for pos in _positions(rng, n - 1, sample=SAMPLE // 3):
        yield f"swap {pos}", _replace(trace, evs[:pos] + [evs[pos + 1], evs[pos]] + evs[pos + 2:])
    for pos in _positions(rng, n, sample=SAMPLE // 3):
        yield f"drop {pos}", _replace(trace, evs[:pos] + evs[pos + 1:])
        yield f"dup {pos}", _replace(trace, evs[:pos + 1] + evs[pos:])
    many = FORGE_EVENTS_SHORT if n <= FULL_LIMIT else FORGE_EVENTS_LONG
    for pos in _positions(rng, n, limit=many, sample=many):
        ev = evs[pos]
        edits = [("rule", ev._replace(rule=ev.rule + "x")),
                 ("to", ev._replace(to_state="S1(x)")),
                 ("from", ev._replace(from_state="S3(1)"))]
        for key in PAYLOAD_KEYS:
            if key not in ev.payload:
                continue
            payload = {k: v for k, v in ev.payload.items() if k != key}
            edits.append((f"del {key}", ev._replace(payload=payload)))
            for value in FORGED_VALUES:
                payload = dict(ev.payload, **{key: value})
                edits.append((f"{key}={value!r}", ev._replace(payload=payload)))
        for label, forged in edits:
            yield f"forge {pos} {label}", _replace(trace, evs[:pos] + [forged] + evs[pos + 1:])


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def accept_lines(machine: str, trace: Trace) -> list[str]:
    events = [name for _seq, name in annotate_trace(trace, machine)]
    domain = _domain(machine, trace)
    rng = random.Random(f"accept:{machine}:{len(events)}")
    lines = []
    for label, mutant in [("as is", events)] + list(_event_mutants(events, rng)):
        try:
            res = accept_events(machine, mutant, domain)
            lines.append(f"{label}\t{res.accepted}\t{res.reject_index}\t{res.first_illegal_event}")
        except Exception as exc:  # the exception type is part of the pin
            lines.append(f"{label}\traise {type(exc).__name__}")
    return lines


def verdict_lines(machine: str, trace: Trace) -> list[str]:
    rng = random.Random(f"verdict:{machine}:{len(trace.events)}")
    lines = []
    for label, mutant in _trace_mutants(trace, rng):
        try:
            v = check_csp_conformance(mutant, machine)
            lines.append(f"{label}\t{v.ok}\t{v.detail}\t{v.first_violation_seq}")
        except Exception as exc:  # the exception type is part of the pin
            lines.append(f"{label}\traise {type(exc).__name__}")
    return lines


# key -> (sha256 of accept_events lines, sha256 of verdict lines)
GOLDEN = {
    "geo:bfd": (
        "05a2ea4381f66f013b819355a2d4cd860b3718d778de80006b5fb924395f7e0b",
        "39bfa276cbe5db44d02736c49fcf5acd5e01364a292d7c57081adec0de91e036",
    ),
    "geo:cdd": (
        "026c117187ba310ce004fec7242113b171ddf955679a991a35845a36746b25a1",
        "d82d4ed90703241e4d81868377c0990771beb0d8d630a6f6f44d0a639ce8ab79",
    ),
    "geo:dad": (
        "c7943a9a26f5196f8098282d08e789789c71a2164eb5ffeea5cd41ac2075f52a",
        "108f08b6469f3e15af39b28f70992d48a24ef956b47b746e4c93508ad4aaecb7",
    ),
    "geo:dfd": (
        "3819bb64c3111e07a9c8dc7be66a159968b56e7c5e3a06ff1831bc19c46dbde5",
        "a05e39f2d8200a176a392f07ccf56e50ae02871619f6aea3484d0697610ddb16",
    ),
    "geo:pbfd": (
        "49b337bcaf35776313db322f9c2070d4c5e47b9ccf5b73b4273409402d169d31",
        "21d1de55829754ac43b0915384e590b9c23c6c04d8ebfacac31b2552dee80c7d",
    ),
    "geo:pdfd": (
        "dfc6fcc1c5cac32717dbf42cecb07d060c6d51499f50d395ca82ff90dbbd1780",
        "21c89cba3ad936b53e0b28bfc222d638522f3031f44241d2f9badb7b99c84a83",
    ),
    "geo:tle": (
        "adde2ea87cdc1200fdbff076eb99bfdea7e0a64754292240326ba6446e9226ea",
        "deec53aae14e76345040dc979aa26d5bb69f7208be4e4f2ee75823fe727faf2a",
    ),
    "uneven:bfd": (
        "ecf8aa25ebeb0b49e2ec5d389a9545e96bc3b7f1d73f664b0b10b48702933cd0",
        "1a728171d51f541f8685fc5b2f0db1ba72dc1c8c8413f0e43cebc63c8d80e6b1",
    ),
    "uneven:cdd": (
        "0030c07ea2d0c5bf899241e04d212bd4fc73d65bcb13bf92f84ce67521f7bf0b",
        "85cbfc9c70d59a5801100ff5152d40a5e82d5b0ff71ff66d674f775ca2917f84",
    ),
    "uneven:dad": (
        "ca161f6ef07bff71e3e4438ec6425272ad6f9c23d2dfd8ae6e06e460d36f173c",
        "7e86f73b678db9617cc0d5490692c713b1469641a3f723114aaf598086b181c4",
    ),
    "uneven:dfd": (
        "94ff9bf86b373bf99170dd7a381e8f4ab6f209eea957d74c53def9f97d074336",
        "5bdc7d7f75c84a46725969be2fefd6775376b4888d0b453cde39eb00b18d9a20",
    ),
    "uneven:pbfd": (
        "eb6ab552ac519fb910941de46b0955fa21f5f1e34a4ce937dfc5a1d8fff40fd2",
        "86028eebec60332d9d2bcd6e12821aba93e9501c41472355968c18602b3d7f24",
    ),
    "uneven:pdfd": (
        "467402ab04c02f7fab6f20fbc309ca70b1e9c899254d2921d47908ee183d3dc3",
        "32f693edab0590c95195e10775eaaad7c1afec43d8a1f0da1eece2beff28ebdc",
    ),
    "uneven:tle": (
        "37be2ea5a04e9b4aaf2254840afad992994536bae17cea0a5108c6fa7eea9661",
        "d721b822cee452c052bd6474710478293e8f7a2ae42cb73da9906180817572a2",
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_accept_events_match_golden_hash(key):
    machine = key.split(":")[1]
    assert _digest(accept_lines(machine, _golden_trace(key))) == GOLDEN[key][0]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_verdicts_match_golden_hash(key):
    machine = key.split(":")[1]
    assert _digest(verdict_lines(machine, _golden_trace(key))) == GOLDEN[key][1]


def _chunked_refusal(machine: str, domain, events: list[list[str]], size: int):
    """The index of the first event refused when ``events`` are fed in
    chunks of ``size``, or None."""
    recognizer = make_recognizer(machine, domain)
    for start in range(0, len(events), size):
        idx = recognizer.feed(events[start:start + size])
        if idx is not None:
            return start + idx
    return None


def _stepped_refusal(machine: str, domain, events: list[str]):
    recognizer = make_recognizer(machine, domain)
    return next((k for k, name in enumerate(events) if not recognizer.step(name)), None)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_chunked_feeds_refuse_where_one_feed_does(key):
    """A branch split across feeds resumes at the template it stopped at:
    the annotated events and every mutant ``accept_lines`` pins, fed in
    chunks of 1, 2, 3 and 5 and one by one through ``step``, are refused
    at the index one whole feed refuses."""
    machine = key.split(":")[1]
    trace = _golden_trace(key)
    events = [name for _seq, name in annotate_trace(trace, machine)]
    domain = _domain(machine, trace)
    rng = random.Random(f"accept:{machine}:{len(events)}")
    for label, mutant in [("as is", events)] + list(_event_mutants(events, rng)):
        split = [name.split(".") for name in mutant]
        whole = make_recognizer(machine, domain).feed(split)
        for size in (1, 2, 3, 5):
            assert _chunked_refusal(machine, domain, split, size) == whole, (label, size)
        assert _stepped_refusal(machine, domain, mutant) == whole, label


def test_golden_set_covers_every_machine_on_both_trees():
    assert sorted(GOLDEN) == sorted(f"{t}:{m}" for t in ("geo", "uneven") for m in MACHINES)


def test_forged_float_and_dotted_parameters_are_rejected():
    trace = _golden_trace("geo:dfd")
    pos = next(i for i, ev in enumerate(trace.events) if ev.rule == "DF2")
    for value in (1.5, "a.b"):
        ev = trace.events[pos]
        forged = ev._replace(payload=dict(ev.payload, node=value))
        events = trace.events[:pos] + [forged] + trace.events[pos + 1:]
        v = check_csp_conformance(Trace("dfd", events), "dfd")
        assert not v.ok
        assert v.first_violation_seq == ev.seq
        assert v.detail == f"illegal event 'stack_not_empty.{value}'"


@pytest.mark.parametrize("value", ["*", "$x"])
@pytest.mark.parametrize("machine,rule,key", [("dad", "DA2", "node"), ("bfd", "BF3", "level"),
                                              ("cdd", "CD3a", "component")])
def test_captured_values_are_compared_not_read_as_patterns(machine, rule, key, value):
    """A captured parameter spelled like a wildcard or a capture matches
    only itself later in the process, so a forged trace stays rejected."""
    trace = _golden_trace(f"geo:{machine}")
    pos = next(i for i, ev in enumerate(trace.events) if ev.rule == rule)
    ev = trace.events[pos]
    forged = ev._replace(payload=dict(ev.payload, **{key: value}))
    events = trace.events[:pos] + [forged] + trace.events[pos + 1:]
    v = check_csp_conformance(Trace(machine, events), machine)
    assert not v.ok
    assert v.first_violation_seq > ev.seq


def test_annotation_failure_wins_over_an_earlier_illegal_event():
    trace = _golden_trace("geo:dfd")
    evs = list(trace.events)
    evs[1], evs[2] = evs[2], evs[1]
    last = max(i for i, ev in enumerate(evs) if "node" in ev.payload)
    evs[last] = evs[last]._replace(
        payload={k: v for k, v in evs[last].payload.items() if k != "node"})
    v = check_csp_conformance(Trace("dfd", evs), "dfd")
    assert not v.ok
    assert v.detail == "annotation failed: 'node'"
    assert v.first_violation_seq == evs[last].seq


@pytest.mark.parametrize("machine", MACHINES)
def test_every_table_event_is_in_the_alphabet(machine):
    built = table(machine)
    alphabet = _alphabet(built)
    for entries in built.values():
        for event, entry in entries.items():
            assert event in alphabet
            assert {t[0] for t in entry[0]} <= alphabet


ALPHABET_SIZES = {"pdfd": 25, "pbfd": 28, "dad": 14, "dfd": 20, "bfd": 11, "cdd": 17, "tle": 11}
ALPHABETS_SHA256 = "cb9efa1b4f6e6b24e89a498cae79e1d235994ce8a148cf4a257f682bfe3342f1"


def test_alphabets_are_pinned():
    """Every alphabet, as the SHA-256 of its sorted JSON: a change to how
    the alphabets are derived from the tables may not change them."""
    alphabets = {m: _alphabet(table(m)) for m in TABLE_SPECS}
    assert {m: len(names) for m, names in alphabets.items()} == ALPHABET_SIZES
    text = json.dumps({m: sorted(names) for m, names in alphabets.items()}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ALPHABETS_SHA256


def _row_templates(spec):
    alternatives = spec.events.alternatives if isinstance(spec.events, Pick) else (spec.events,)
    return [template for templates in alternatives for template in templates]


@pytest.mark.parametrize("machine", MACHINES)
def test_every_rule_row_emits_only_alphabet_events(machine):
    for rule, spec in RULE_TABLES[machine].items():
        if rule == "PB3a3":  # no engine emits it and no process event stands for it
            assert spec.events is None
            continue
        assert spec.events, rule
        templates = _row_templates(spec)
        assert {template[0] for template in templates} <= _alphabet(table(machine)), rule
        # Every parameter is read by a getter: a payload field, or {@}.
        assert all(callable(seg) for template in templates for seg in template[1:]), rule


def test_a_row_event_outside_the_process_alphabet_is_refused(monkeypatch):
    """The alphabet comes from the process table, so a rule row cannot
    widen it."""
    trace = _golden_trace("geo:bfd")
    row = RULE_TABLES["bfd"]["BF2"]
    monkeypatch.setitem(RULE_TABLES["bfd"], "BF2", dataclasses.replace(row, events="bogus.{node}"))
    v = check_csp_conformance(trace, "bfd")
    first = next(ev for ev in trace.events if ev.rule == "BF2")
    assert not v.ok
    assert v.detail == f"event 'bogus.{first.payload['node']}' outside alphabet"
    assert v.first_violation_seq == first.seq


def test_a_replaced_row_renders_its_own_events():
    """A row's renderer is compiled from its own ``events``: a copy with
    other events renders those, and the original is unchanged."""
    row = RULE_TABLES["bfd"]["BF2"]
    ev = TraceEvent(2, "BF2", "S1", "S1", {"node": 7, "level": 2})
    before = [("dequeue_actual", "7"), ("develop_actual", "7"), ("enqueue_children_actual", "7")]
    assert row.render(ev, None) == before
    other = dataclasses.replace(row, events="a.{level} b c.{node}.{level}")
    assert other.render(ev, None) == [("a", "2"), ("b",), ("c", "7", "2")]
    assert row.render(ev, None) == before
    # The fields are read in the order the templates first name them.
    with pytest.raises(KeyError, match="'level'"):
        other.render(ev._replace(payload={}), None)
