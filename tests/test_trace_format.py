"""Trace format 2 (delta-encoded hybrid statuses), the monitors' status
fold, and the JSONL codec."""

import json
import re
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_trace_golden import _hybrid_scenario, _inputs, _trace
from treeflow import trace as trace_mod
from treeflow.basic_machines import run_dfd
from treeflow.cli import main
from treeflow.fixtures import (
    GEO_ROWS,
    geo_hierarchy,
    pbfd_mvp_scenario,
    pdfd_mvp_scenario,
    perfect_tree,
    visited_places_hierarchy,
)
from treeflow.hybrid_machines import run_pbfd, run_pdfd
from treeflow.jsondoc import read_text
from treeflow.trace import (
    TRACE_FORMAT,
    StatusFold,
    StatusFoldError,
    Trace,
    TraceEvent,
    TraceFormatError,
)
from treeflow.verify import (
    check_finalization,
    check_measure_descent,
    check_rule_legality,
    run_all_checks,
)

DATA = Path(__file__).resolve().parent / "data"
# What hybrid events carried before the labels and the monitors took over.
SNAPSHOT_KEYS = {"phase", "i", "j", "i_orig", "origin_phase"}
MEASURE_KEYS = {"measure_pre", "measure_post"}


def mvp_trace() -> Trace:
    return run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario()).trace


def replace_payload(trace: Trace, index: int, **payload) -> Trace:
    events = list(trace)
    events[index] = events[index]._replace(payload=dict(events[index].payload, **payload))
    return Trace(trace.methodology, events)


def fold_through(events) -> StatusFold:
    """A new StatusFold stepped through ``events``."""
    fold = StatusFold()
    for ev in events:
        fold.step(ev)
    return fold


class TestEngineOutput:
    @pytest.mark.parametrize("run", [run_pdfd, run_pbfd])
    def test_full_map_first_then_only_changes(self, run):
        res = run(visited_places_hierarchy(), pdfd_mvp_scenario())
        first, *rest = res.trace
        assert first.payload["trace_format"] == TRACE_FORMAT == 2
        assert set(first.payload["statuses"]) == {str(n) for n in res.statuses}
        assert "status_changes" not in first.payload
        for ev in rest:
            assert "statuses" not in ev.payload and "trace_format" not in ev.payload
            assert "status_changes" in ev.payload

    @pytest.mark.parametrize("run", [run_pdfd, run_pbfd])
    def test_changes_are_exactly_the_changed_nodes(self, run):
        res = run(visited_places_hierarchy(), pdfd_mvp_scenario())
        fold = StatusFold()
        for ev in res.trace:
            prior = fold.step(ev)
            if ev.seq > 1:
                assert set(ev.payload["status_changes"]) == {str(n) for n in prior}
        assert fold.statuses == res.statuses

    @pytest.mark.parametrize("run", [run_pdfd, run_pbfd])
    def test_payload_equals_its_json_round_trip(self, run):
        res = run(visited_places_hierarchy(), pdfd_mvp_scenario())
        for ev in res.trace:
            assert json.loads(json.dumps(ev.payload)) == ev.payload

    @pytest.mark.parametrize("run", [run_pdfd, run_pbfd])
    def test_events_carry_no_state_snapshot_and_no_measure(self, run):
        """The target label names the phase and level, and the monitors
        compute the measure: neither is written beside them."""
        res = run(visited_places_hierarchy(), pdfd_mvp_scenario())
        for ev in res.trace:
            assert not SNAPSHOT_KEYS & set(ev.payload), ev
            assert set(ev.to_record()) == {"seq", "rule", "from", "to", "payload"}

    def test_monitors_agree_on_a_run_and_its_read_back(self, tmp_path):
        trace = mvp_trace()
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(path)
        back = Trace.read_jsonl(path, "pdfd")
        assert back.events == trace.events
        assert [v.line() for v in run_all_checks(back)] == [v.line() for v in run_all_checks(trace)]


class TestFold:
    def test_forged_demotion_flagged_at_its_seq(self):
        trace = mvp_trace()
        idx, node = next((i, int(n)) for i, e in enumerate(trace)
                         for n, s in e.payload.get("status_changes", {}).items() if s == 2)
        later = trace[idx + 1]
        forged = replace_payload(trace, idx + 1, status_changes={str(node): 1})
        fin = check_finalization(forged)
        assert (fin.ok, fin.first_violation_seq, fin.detail) == (
            False, later.seq, f"node {node} left FINALIZED")
        descent = check_measure_descent(forged)
        assert not descent.ok and descent.first_violation_seq == later.seq

    def test_unknown_node_is_a_failed_verdict(self):
        trace = mvp_trace()
        forged = replace_payload(trace, 3, status_changes={"9999": 2})
        seq = trace[3].seq
        for check in (check_rule_legality, check_measure_descent, check_finalization):
            verdict = check(forged)
            assert not verdict.ok
            assert verdict.first_violation_seq == seq
            assert verdict.detail == "status_changes names unknown node 9999"

    def test_changes_before_a_full_map(self):
        trace = mvp_trace()
        first = trace[0]
        payload = {k: v for k, v in first.payload.items() if k != "statuses"}
        events = [first._replace(payload=dict(payload, status_changes={}))]
        verdict = check_finalization(Trace("pdfd", events + trace.events[1:]))
        assert (verdict.ok, verdict.first_violation_seq) == (False, 1)
        assert verdict.detail == "status_changes before any full status map"

    def test_unknown_trace_format_is_a_failed_verdict(self):
        """A later format may give status_changes another meaning: the fold
        refuses it instead of reading it as format 2."""
        forged = replace_payload(mvp_trace(), 0, trace_format=3)
        for check in (check_rule_legality, check_measure_descent, check_finalization):
            verdict = check(forged)
            assert (verdict.ok, verdict.first_violation_seq) == (False, 1)
            assert verdict.detail == "unsupported trace_format 3"

    @pytest.mark.parametrize("bad", [["0"], {"0": "two"}, {"x": 1}])
    def test_malformed_changes(self, bad):
        forged = replace_payload(mvp_trace(), 2, status_changes=bad)
        with pytest.raises(StatusFoldError, match="status_changes must map node ids"):
            fold_through(forged)

    @pytest.mark.parametrize("status", [1.9, 2.0, "2", True, False, None, 3, -1])
    def test_statuses_are_the_integers_0_1_and_2(self, status):
        """int() reads 1.9, "2" and true as statuses 1, 2 and 1: a forged
        delta or full map holding one fails the monitors at its event."""
        trace = mvp_trace()
        first = dict(trace[0].payload["statuses"])
        node = next(iter(first))
        detail = f"must map node ids to statuses 0, 1 or 2, got {status!r} for {node!r}"
        first[node] = status
        for index, key, value in ((3, "status_changes", {node: status}), (0, "statuses", first)):
            forged = replace_payload(trace, index, **{key: value})
            with pytest.raises(StatusFoldError, match=re.escape(f"{key} {detail}")):
                fold_through(forged)
            for check in (check_rule_legality, check_measure_descent, check_finalization):
                verdict = check(forged)
                assert (verdict.ok, verdict.first_violation_seq, verdict.detail) == (
                    False, trace[index].seq, f"{key} {detail}")

    @pytest.mark.parametrize("key,node", [(" 3", 3), ("+3", 3), ("03", 3), ("٣", 3), ("1_0", 10)])
    def test_key_must_be_written_as_a_node_id(self, key, node):
        """int() reads each of these keys as a node id: a forged delta that
        spells one differently fails the monitors at its event."""
        trace = mvp_trace()
        forged = replace_payload(trace, 3, status_changes={key: 2})
        detail = f"status_changes key {key!r} must be written '{node}'"
        with pytest.raises(StatusFoldError, match=re.escape(detail)):
            fold_through(forged)
        for check in (check_rule_legality, check_measure_descent, check_finalization):
            verdict = check(forged)
            assert (verdict.ok, verdict.first_violation_seq, verdict.detail) == (
                False, trace[3].seq, detail)

    def test_full_map_key_must_be_written_as_a_node_id(self):
        trace = mvp_trace()
        statuses = dict(trace[0].payload["statuses"])
        first = next(iter(statuses))
        statuses["0" + first] = statuses.pop(first)
        forged = replace_payload(trace, 0, statuses=statuses)
        verdict = check_finalization(forged)
        assert (verdict.ok, verdict.first_violation_seq, verdict.detail) == (
            False, 1, f"statuses key {'0' + first!r} must be written {first!r}")

    def test_full_maps_replace_the_fold(self):
        """Format-1 events carry a full map each; the fold diffs them."""
        base = {"attempts": {}, "phase": "S1", "i": 1}
        events = [
            TraceEvent(1, "PD1", "S0", "S1", dict(base, statuses={"1": 0, "2": 0})),
            TraceEvent(2, "PD2", "S1", "S2", dict(base, statuses={"1": 2, "2": 0})),
            TraceEvent(3, "PD2", "S1", "S2", dict(base, statuses={"1": 2})),
        ]
        fold, seen = StatusFold(), []
        for ev in events:
            prior = fold.step(ev)
            seen.append((dict(fold.statuses), prior))
        assert seen == [
            ({1: 0, 2: 0}, {1: None, 2: None}),
            ({1: 2, 2: 0}, {1: 0}),
            ({1: 2}, {2: 0}),
        ]

    def test_deltas_name_nodes_of_the_last_full_map(self):
        base = {"attempts": {}}
        events = [
            TraceEvent(1, "PD1", "S0", "S1", dict(base, statuses={"1": 0, "2": 0})),
            TraceEvent(2, "PD2", "S1", "S2", dict(base, statuses={"1": 1, "3": 0})),
            TraceEvent(3, "PD2", "S1", "S2", dict(base, status_changes={"3": 2})),
            TraceEvent(4, "PD2", "S1", "S2", dict(base, status_changes={"2": 2})),
        ]
        fold, seen = StatusFold(), []
        for ev in events[:3]:
            fold.step(ev)
            seen.append(dict(fold.statuses))
        assert seen == [{1: 0, 2: 0}, {1: 1, 3: 0}, {1: 1, 3: 2}]
        with pytest.raises(StatusFoldError, match="^event 4: status_changes names unknown node 2$"):
            fold.step(events[3])

    def test_full_map_and_delta_in_one_event_cancel(self):
        base = {"attempts": {}}
        events = [
            TraceEvent(1, "PD1", "S0", "S1", dict(base, statuses={"1": 2})),
            TraceEvent(2, "PD2", "S1", "S2",
                       dict(base, statuses={"1": 1}, status_changes={"1": 2})),
        ]
        fold = StatusFold()
        assert [fold.step(ev) for ev in events] == [{1: None}, {}]


class TestFormatOneTraces:
    """Full-snapshot traces written before the delta format, with the
    verdict lines today's monitors give them.  The demoted trace's node 0
    leaves FINALIZED at event 17, a PB4a, whose effect only finalizes; the
    monitor's own k1 rises there and falls back at event 18, a PB2, which
    must keep it equal."""

    EXPECTED = {
        ("pdfd_mvp_format1.jsonl", "pdfd"): [
            "PASS well-formed",
            "PASS rule-legality",
            "PASS measure-descent",
            "PASS bounded-refinement",
            "PASS finalization-invariance",
            "PASS deadlock-freeness[pdfd]",
            "PASS csp-conformance[pdfd]",
        ],
        ("pbfd_mvp_format1_demoted.jsonl", "pbfd"): [
            "PASS well-formed",
            "FAIL rule-legality (event 17: PB4a moved node 0 from 2 to 1)",
            "FAIL measure-descent (event 18: PB2 component k1 broke pattern =: 32 -> 31)",
            "PASS bounded-refinement",
            "FAIL finalization-invariance (event 17: node 0 left FINALIZED)",
            "PASS deadlock-freeness[pbfd]",
            "PASS csp-conformance[pbfd]",
        ],
    }

    @pytest.mark.parametrize("name,methodology", sorted(EXPECTED))
    def test_verify_all_prints_the_same_verdicts(self, name, methodology, capsys):
        code = main(["verify", "--trace", str(DATA / name), "--methodology", methodology,
                     "--check", "all"])
        lines = capsys.readouterr().out.splitlines()
        assert lines == self.EXPECTED[(name, methodology)]
        assert code == (0 if all(l.startswith("PASS") for l in lines) else 2)


class TestRestatedFormatTwoTraces:
    """Format-2 replays of the two fixtures written by earlier engines:
    ``*_restated`` while hybrid events still restated the level map and
    their status changes in payload fields (``batch``, ``processed``,
    ``pattern``, ``reworked``, ``finalized``, ``finalized_count``,
    ``next_pattern`` and a per-event ``k``) and carried the per-level
    ``attempts`` map, and ``*_snapshot`` while they still carried the
    engine's state snapshot (``phase``, ``i``, ``j``, ``i_orig``,
    ``origin_phase``) and its ``measure_pre``/``measure_post``.  Both verify
    as today's replay of the same fixture does, and today's replay is each
    one without those fields."""

    @pytest.mark.parametrize("methodology", ["pdfd", "pbfd"])
    def test_verify_all_prints_todays_verdicts(self, methodology, tmp_path, capsys):
        fresh = tmp_path / "trace.jsonl"
        assert main(["replay", "--fixture", f"{methodology}-mvp", "--format", "jsonl-trace",
                     "--out", str(fresh)]) == 0
        results = []
        for path in (DATA / f"{methodology}_mvp_format2_restated.jsonl",
                     DATA / f"{methodology}_mvp_format2_snapshot.jsonl", fresh):
            capsys.readouterr()
            code = main(["verify", "--trace", str(path), "--methodology", methodology,
                         "--check", "all"])
            results.append((code, capsys.readouterr().out.splitlines()))
        restated, snapshot, new = results
        assert restated == snapshot == new
        assert new[0] == 0 and len(new[1]) == 7

    @pytest.mark.parametrize("methodology", ["pdfd", "pbfd"])
    def test_todays_replay_is_the_old_one_without_the_copies(self, methodology):
        restated = {"batch", "processed", "pattern", "reworked", "finalized",
                    "finalized_count", "next_pattern", "attempts"} | SNAPSHOT_KEYS
        old = Trace.read_jsonl(DATA / f"{methodology}_mvp_format2_restated.jsonl")
        assert any(restated & set(ev.payload) for ev in old)
        projected = [
            ev._replace(payload={k: v for k, v in ev.payload.items()
                                 if k not in restated and (k != "k" or ev.seq == 1)})
            for ev in old
        ]
        if methodology == "pdfd":
            result = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
        else:
            result = run_pbfd(geo_hierarchy(), pbfd_mvp_scenario())
        assert result.trace.events == projected

    @pytest.mark.parametrize("methodology", ["pdfd", "pbfd"])
    def test_todays_replay_is_the_snapshot_one_without_the_seven_keys(
            self, methodology, tmp_path):
        projected = []
        for line in (DATA / f"{methodology}_mvp_format2_snapshot.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert MEASURE_KEYS <= set(rec) and SNAPSHOT_KEYS <= set(rec["payload"])
            rec = {k: v for k, v in rec.items() if k not in MEASURE_KEYS}
            rec["payload"] = {k: v for k, v in rec["payload"].items() if k not in SNAPSHOT_KEYS}
            projected.append(json.dumps(rec, sort_keys=True))
        fresh = tmp_path / "trace.jsonl"
        assert main(["replay", "--fixture", f"{methodology}-mvp", "--format", "jsonl-trace",
                     "--out", str(fresh)]) == 0
        assert fresh.read_text().splitlines() == projected


class TestCodec:
    def test_blank_and_padded_lines_read_like_before(self, tmp_path):
        trace = mvp_trace()
        lines = trace.to_jsonl().splitlines()
        path = tmp_path / "t.jsonl"
        path.write_text("\n" + "\n\n".join(lines[:3]) + "  \n" + "\n".join(lines[3:]) + "\n")
        assert Trace.read_jsonl(path).events == trace.events

    def test_read_back_events_are_frozen_tuples(self, tmp_path):
        path = tmp_path / "t.jsonl"
        mvp_trace().write_jsonl(path)
        ev = Trace.read_jsonl(path)[1]
        assert type(ev) is TraceEvent and isinstance(ev, tuple)
        with pytest.raises(AttributeError):
            ev.rule = "PD9"  # type: ignore[misc]

    def test_emit_record_and_constructor_build_equal_events(self):
        payload = {"node": 3}
        emitted = Trace("pdfd").emit("PD2", "S1(1)", "S2(1)", payload)
        read = TraceEvent.from_record(json.loads(json.dumps(emitted.to_record())), {})
        built = TraceEvent(1, "PD2", "S1(1)", "S2(1)", payload)
        assert emitted == read == built
        assert type(emitted) is type(read) is type(built) is TraceEvent
        with pytest.raises(TypeError):
            TraceEvent(1, "PD2", "S1(1)", "S2(1)")  # type: ignore[call-arg]

    def test_lines_that_only_parse_joined_are_rejected(self, tmp_path):
        """A record split over two lines is an error at its first line, even
        when the whole text would parse as one JSON sequence."""
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq": 1, "rule": "DF1", "from": "S0", "to": "S1",\n"payload": {}}\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:1: invalid JSON"):
            Trace.read_jsonl(path)

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_line_and_paragraph_separators_stay_inside_a_string(self, char, tmp_path):
        """JSON allows these raw in a string; a line ends at a newline only."""
        path = tmp_path / "t.jsonl"
        path.write_bytes(('{"seq": 1, "rule": "DF1", "from": "S0", "to": "S1", '
                          f'"payload": {{"name": "a{char}b"}}}}\n').encode())
        (ev,) = Trace.read_jsonl(path).events
        assert ev.payload == {"name": f"a{char}b"}

    def test_crlf_lines_still_read(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = mvp_trace().to_jsonl().splitlines()
        lines[1] = lines[1].replace('"from": ', '"note": "\u2028", "from": ', 1)
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        back = Trace.read_jsonl(path)
        assert back.events[0] == mvp_trace().events[0] and len(back) == len(lines)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_raw_control_characters_are_refused_by_the_decoder(self, char, tmp_path):
        """Python also breaks lines at these; JSON refuses them raw in a
        string, as one faulty line."""
        path = tmp_path / "t.jsonl"
        path.write_bytes(('{"seq": 1, "rule": "DF1", "from": "S0", "to": "S1", '
                          f'"payload": {{"name": "a{char}b"}}}}\n').encode())
        with pytest.raises(TraceFormatError,
                           match=r"t\.jsonl:1: invalid JSON: Invalid control character at$"):
            Trace.read_jsonl(path)


def assert_labels_shared(events) -> None:
    """Equal rule and state labels of one read are one object."""
    seen: dict[str, str] = {}
    for ev in events:
        for label in (ev.rule, ev.from_state, ev.to_state):
            assert seen.setdefault(label, label) is label


def machine_traces():
    """Each machine's trace on GEO and on ``perfect_tree(3, 5)``."""
    tree = perfect_tree(3, 5)
    inputs = {"geo": _inputs("geo"),
              "perfect": (tree, {"pdfd": _hybrid_scenario(tree, 11),
                                 "pbfd": _hybrid_scenario(tree, 23)})}
    for name, (h, hybrid) in inputs.items():
        for machine in ("pdfd", "pbfd", "dad", "dfd", "bfd", "cdd"):
            yield f"{name}:{machine}", _trace(machine, h, hybrid)


def edit_line(lines, pos, *replacement):
    return lines[:pos] + list(replacement) + lines[pos + 1:]


# name -> (text from the GEO dfd trace's lines, what reading it raises after
# the path, or None when it reads as the trace itself)
EDITS = {
    "blank line": (lambda ls: "\n".join(edit_line(ls, 2, ls[2], "")) + "\n", None),
    "whitespace-only line": (lambda ls: "\n".join(edit_line(ls, 2, ls[2], " \t ")) + "\n",
                             None),
    "CRLF endings": (lambda ls: "\r\n".join(ls) + "\r\n", None),
    "trailing spaces": (lambda ls: "\n".join(edit_line(ls, 2, ls[2] + "  ")) + "\n", None),
    "no final newline": (lambda ls: "\n".join(ls), None),
    "a record over two lines": (lambda ls: "\n".join(
        edit_line(ls, 2, ls[2].replace(' "payload"', '\n "payload"'))) + "\n",
        ":3: invalid JSON: Expecting property name enclosed in double quotes"),
    "two records on one line": (lambda ls: "\n".join(
        edit_line(ls[:3] + ls[4:], 2, ls[2] + " " + ls[3])) + "\n",
        ":3: invalid JSON: Extra data"),
    "a non-object line": (lambda ls: "\n".join(edit_line(ls, 2, "[1, 2]")) + "\n",
                          ":3: event must be a JSON object, got list"),
    "a missing rule": (lambda ls: "\n".join(edit_line(
        ls, 2, re.sub(r'"rule": "[^"]*", ', "", ls[2]))) + "\n",
        ":3: event missing field 'rule'"),
    "a null payload": (lambda ls: "\n".join(edit_line(
        ls, 2, re.sub(r'"payload": \{[^}]*\}', '"payload": null', ls[2]))) + "\n",
        ":3: payload must be a JSON object, got NoneType"),
    "a number rule": (lambda ls: "\n".join(edit_line(
        ls, 2, re.sub(r'"rule": "[^"]*"', '"rule": 7', ls[2]))) + "\n",
        ":3: rule must be a string, got int"),
    "a list state": (lambda ls: "\n".join(edit_line(
        ls, 2, re.sub(r'"to": "[^"]*"', '"to": []', ls[2]))) + "\n",
        ":3: to must be a string, got list"),
}


class TestReader:
    """``Trace.read_jsonl`` parses a clean text in place and cuts out only
    the lines that are not one record filling the line; either way every
    event, error text and line number is what a line-by-line read gives,
    and equal labels of one read are one object."""

    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.jsonl")))
    def test_committed_traces(self, name):
        lines = read_text(DATA / name).split("\n")
        expected = [TraceEvent.from_record(json.loads(line), {}) for line in lines if line]
        back = Trace.read_jsonl(DATA / name)
        assert back.events == expected
        assert_labels_shared(back)

    def test_machine_traces(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for key, trace in machine_traces():
            trace.write_jsonl(path)
            back = Trace.read_jsonl(path)
            assert back.events == trace.events, key
            assert_labels_shared(back)

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_edited_copies(self, edit, tmp_path):
        make, error = EDITS[edit]
        trace = run_dfd(geo_hierarchy())
        path = tmp_path / "t.jsonl"
        path.write_bytes(make(trace.to_jsonl().splitlines()).encode())
        if error is None:
            back = Trace.read_jsonl(path)
            assert back.events == trace.events
            assert_labels_shared(back)
        else:
            with pytest.raises(TraceFormatError) as err:
                Trace.read_jsonl(path)
            assert str(err.value) == f"{path}{error}"


HAND_MADE = [
    TraceEvent(1, "DF1", "S0", "S1", {"root": 1, "name": "Zürich ☃ \u2028", "rate": 0.1,
                                      "big": 1e300, "none": None, "flags": [True, False]}),
    TraceEvent(2, "PD2", "S1(1)", "S2(1)",
               {"nested": {"b": [1, {"z": 2.5, "a": -0.0}], "a": {}}, "k": {"10": 1, "9": 2}}),
    TraceEvent(3, "DF7", "S3", "T", {}),
]


class Colour(IntEnum):
    RED = 1
    BLUE = -2


class Label(str):
    pass


class Rank(int):
    """The encoder writes ``int.__repr__``, not this."""

    def __repr__(self) -> str:
        return f"Rank({int(self)})"

    __str__ = __repr__


class Opaque:
    """Not JSON: the encoder's ``default`` refuses it."""


class Other:
    """Refused with another message, so two faults in a record differ."""


def circular() -> list:
    loop: list = []
    loop.append(loop)
    return loop


TEXT = st.text(max_size=4) | st.sampled_from(['"', "\\", "\n", "é", "\u2028", "\x00", "Zürich ☃"])
INTS = st.integers(-2**70, 2**70) | st.sampled_from([-1, 2**64, 2**64 + 1])
FLOATS = st.sampled_from([-0.0, 1e300, 0.5]) | st.floats()
FLAT = (INTS | TEXT | st.none() | st.booleans() | FLOATS | st.sampled_from(Colour)
        | INTS.map(Rank) | TEXT.map(Label))
INT_LISTS = st.lists(INTS | st.booleans(), max_size=4)
FAULTS = st.sampled_from([Opaque(), Other()]) | st.builds(circular)


def events(faulty: bool) -> st.SearchStrategy:
    """Events whose fields may hold any value; if ``faulty``, also values
    the encoder refuses."""
    value = st.recursive(FLAT | FAULTS if faulty else FLAT, lambda inner: (
        st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(TEXT, inner, max_size=3)
        | st.dictionaries(TEXT | INTS, inner, max_size=3)), max_leaves=6)
    odd = FAULTS | value if faulty else FLAT
    payload = (st.dictionaries(TEXT, value | INT_LISTS, max_size=5)
               | st.dictionaries(INTS | TEXT, value, max_size=3)
               | st.dictionaries(TEXT.map(Label), value, max_size=2)
               | st.lists(value, max_size=2))
    return st.builds(
        TraceEvent, INTS | TEXT | FLOATS | st.booleans() | odd, TEXT | odd, TEXT | odd,
        TEXT | odd, payload)


TRACES = st.lists(events(False), max_size=4) | st.lists(events(True), max_size=3)


def json_dumps_lines(events) -> tuple[str | None, tuple[type, str] | None]:
    try:
        return "".join(json.dumps(ev.to_record(), sort_keys=True) + "\n" for ev in events), None
    except (TypeError, ValueError) as exc:
        return None, (type(exc), str(exc))


@pytest.fixture(params=["c_encoder", "no_c_encoder"])
def encoder(request, monkeypatch):
    """Both ways ``to_jsonl`` encodes: the C encoder built once per trace,
    and ``JSONEncoder.encode`` when the C encoder is missing."""
    if request.param == "no_c_encoder":
        monkeypatch.setattr(trace_mod, "c_make_encoder", None)


class TestEncoder:
    def test_lines_equal_json_dumps(self, encoder):
        lines = Trace("dfd", HAND_MADE).to_jsonl().splitlines()
        assert lines == [json.dumps(ev.to_record(), sort_keys=True) for ev in HAND_MADE]

    def test_read_back_values_encode_as_read(self, encoder, tmp_path):
        """A seq that is not an integer, and a payload key order other than
        sorted, come back out as ``json.dumps`` writes them."""
        path = tmp_path / "t.jsonl"
        records = [{"seq": "7", "rule": "DF1", "from": "S0", "to": "S1", "payload": {"b": 1, "a": "é"}},
                   {"seq": 2.5, "rule": "DF7", "from": "S1", "to": "T", "payload": {"x": None}}]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        assert Trace.read_jsonl(path).to_jsonl() == "".join(
            json.dumps(rec, sort_keys=True) + "\n" for rec in records)

    def test_a_circular_payload_is_refused(self, encoder):
        payload: dict = {"a": 1}
        payload["self"] = payload
        trace = Trace("dfd", [HAND_MADE[0], TraceEvent(2, "DF2", "S1", "S1", payload)])
        with pytest.raises(ValueError, match="Circular reference detected"):
            trace.to_jsonl()
        # The markers of the failed encoding are not reused.
        assert Trace("dfd", HAND_MADE).to_jsonl().count("\n") == len(HAND_MADE)

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(trace=TRACES)
    @example(trace=[TraceEvent(True, Rank(3), "S0", "S1", {"a": Rank(2), "b": Colour.BLUE, "c": [1, True]})])
    @example(trace=[TraceEvent(Opaque(), "DF1", "S0", Other(), {})])
    @example(trace=[TraceEvent(1, "DF1", "S0", "S1", {"a": circular(), "b": Opaque()})])
    @example(trace=[TraceEvent(Other(), "DF1", "S0", "S1", {"a": Opaque()})])
    def test_lines_and_errors_equal_json_dumps(self, encoder, trace):
        """Every line is ``json.dumps`` of the event's record; a trace it
        cannot encode raises its error, first fault first."""
        text, error = json_dumps_lines(trace)
        if error is None:
            assert Trace("dfd", trace).to_jsonl() == text
        else:
            with pytest.raises(error[0]) as err:
                Trace("dfd", trace).to_jsonl()
            assert (type(err.value), str(err.value)) == error


class TestRecordReader:
    def test_records_without_a_payload_get_their_own(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq": 1, "rule": "DF1", "from": "S0", "to": "S1"}\n'
                        '{"seq": 2, "rule": "DF7", "from": "S1", "to": "T"}\n')
        first, second = Trace.read_jsonl(path).events
        assert first.payload == second.payload == {}
        assert first.payload is not second.payload

    @pytest.mark.parametrize("change, message", [
        ({"rule": 3}, "rule must be a string, got int"),
        ({"from": None}, "from must be a string, got NoneType"),
        ({"to": ["T"]}, "to must be a string, got list"),
        ({"rule": 3, "to": 4}, "rule must be a string, got int"),
        ({"from": 1, "to": 2}, "from must be a string, got int"),
        ({"payload": None}, "payload must be a JSON object, got NoneType"),
        ({"payload": [1]}, "payload must be a JSON object, got list"),
        ({"to": {"S1": 1}}, "to must be a string, got dict"),
    ])
    def test_field_errors(self, change, message):
        """Whether or not the read's label table already holds the labels."""
        rec = {"seq": 1, "rule": "DF1", "from": "S0", "to": "S1", "payload": {}, **change}
        for labels in ({}, {"DF1": "DF1", "S0": "S0", "S1": "S1"}):
            with pytest.raises(TraceFormatError) as err:
                TraceEvent.from_record(rec, labels)
            assert str(err.value) == message

    @pytest.mark.parametrize("measures", [
        {"measure_pre": [1, 2, 3, 4], "measure_post": [1, 2, 3, 3]},
        {"measure_pre": 5, "measure_post": "1234"},
        {"measure_post": {"a": 1, "b": 2, "c": 3, "d": 4}},
    ])
    def test_measure_keys_of_older_writers_are_ignored(self, measures):
        rec = {"seq": 1, "rule": "DF1", "from": "S0", "to": "S1", "payload": {"a": 1}}
        assert TraceEvent.from_record({**rec, **measures}, {}) == TraceEvent.from_record(rec, {})

    @pytest.mark.parametrize("rec, message", [
        ("DF1", "event must be a JSON object, got str"),
        (7, "event must be a JSON object, got int"),
        (None, "event must be a JSON object, got NoneType"),
        ({"rule": "DF1", "from": "S0", "to": "S1"}, "event missing field 'seq'"),
    ])
    def test_record_errors(self, rec, message):
        with pytest.raises(TraceFormatError) as err:
            TraceEvent.from_record(rec, {})
        assert str(err.value) == message


class TestCliStdout:
    @pytest.mark.parametrize("methodology", ["pbfd", "dfd"])
    def test_stdout_equals_out_file(self, methodology, tmp_path, capsys):
        tree = tmp_path / "geo.json"
        tree.write_text(json.dumps(GEO_ROWS))
        out = tmp_path / "trace.jsonl"
        args = ["run", "--methodology", methodology, "--hierarchy", str(tree), "--rmax", "5"]
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert printed and printed == out.read_text()

