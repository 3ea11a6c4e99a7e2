"""Bad inputs fail at the boundary with a typed error, never an assert."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treeflow import bench
from treeflow.basic_machines import Dag, GraphError, load_dag
from treeflow.cli import main
from treeflow.fixtures import GEO_ROWS, VISITED_PLACES_ROWS, geo_store, uniform_hierarchy
from treeflow.hierarchy import load_hierarchy
from treeflow.scenario import MAX_R_MAX, Scenario, ScenarioError, load_scenario
from treeflow.tle import SnapshotError, TleStore
from treeflow.trace import Trace, TraceFormatError

SRC = Path(__file__).resolve().parents[1] / "src"


class TestScenarioValidation:
    @pytest.mark.parametrize("r_max", [-1, -5])
    def test_negative_budget_rejected(self, r_max):
        with pytest.raises(ScenarioError, match="r_max must be >= 0"):
            Scenario(r_max=r_max)

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_failure_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ScenarioError, match=r"random_failure_rate must be in \[0, 1\]"):
            Scenario(random_failure_rate=rate)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_failure_rate_bounds_accepted(self, rate):
        assert Scenario(r_max=0, random_failure_rate=rate).random_failure_rate == rate

    def test_loaded_document_is_validated(self):
        with pytest.raises(ScenarioError, match="r_max"):
            load_scenario({"r_max": -2})

    def test_budget_above_the_maximum_rejected(self):
        assert Scenario(r_max=MAX_R_MAX).r_max == MAX_R_MAX
        with pytest.raises(ScenarioError, match=f"^scenario: r_max must be <= {MAX_R_MAX}, got"):
            load_scenario({"r_max": MAX_R_MAX + 1})


class TestScenarioLoader:
    @pytest.mark.parametrize("doc,message", [
        ({"validation_script": [{"index": 1, "attempt": 1, "failing_node_ids": [2]}]},
         "validation_script[0]: missing field 'phase'"),
        ({"trace_origin": {"strategy": "fixed"}}, "trace_origin: missing field 'level'"),
        ([1, 2], "a scenario is a JSON object, got list"),
    ])
    def test_cli_run_prints_one_error_line(self, tmp_path, capsys, doc, message):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(VISITED_PLACES_ROWS))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        rc = main(["run", "--methodology", "pdfd", "--hierarchy", str(tree), "--scenario", str(sc)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {sc}: {message}\n"

    def test_cli_run_names_a_missing_scenario_file(self, tmp_path, capsys):
        """A missing ``--scenario`` file is reported as missing, not read as
        JSON text."""
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(VISITED_PLACES_ROWS))
        sc = tmp_path / "missing.json"
        rc = main(["run", "--methodology", "pdfd", "--hierarchy", str(tree), "--scenario", str(sc)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == f"error: [Errno 2] No such file or directory: '{sc}'\n"

    def test_a_string_that_is_no_json_text_is_a_path(self, tmp_path):
        """As in ``load_hierarchy``: a string is JSON text only when it
        starts with ``{`` or ``[``, so a missing file is reported as
        missing and an existing one is read."""
        with pytest.raises(FileNotFoundError, match="missing.json"):
            load_scenario(str(tmp_path / "missing.json"))
        sc = tmp_path / "sc.json"
        sc.write_text('{"r_max": 4}')
        assert load_scenario(str(sc)).r_max == 4
        assert load_scenario(' \n{"r_max": 5}').r_max == 5
        sc.write_text('{"seed": "7"}')
        with pytest.raises(ScenarioError, match=f"^{sc}: seed: must be an integer"):
            load_scenario(str(sc))

    @pytest.mark.parametrize("doc,message", [
        # int() once read this document as thresholds {2: 1, 3: 1}, seed 7
        # and the script key ('level', 2, 1) failing node 3.
        ({"k": {"0_2": 1, " 3": 1}, "seed": "7", "validation_script": [
            {"phase": "level", "index": "0_2", "attempt": 1.9, "failing_node_ids": ["٣"]}]},
         "validation_script[0]: index must be an integer, got '0_2'"),
        ({"k": {"0_2": 1}}, "k: key '0_2' must be written '2'"),
        ({"k": {" 3": 1}}, "k: key ' 3' must be written '3'"),
        ({"k": {"2": 1.5}}, "k: value of '2' must be an integer, got 1.5"),
        ({"seed": "7"}, "seed: must be an integer, got '7'"),
        ({"seed": True}, "seed: must be an integer, got True"),
        ({"r_max": 2.0}, "r_max: must be an integer, got 2.0"),
        ({"validation_script": [{"phase": "level", "index": 2, "attempt": 1.9,
                                 "failing_node_ids": [3]}]},
         "validation_script[0]: attempt must be an integer, got 1.9"),
        ({"validation_script": [{"phase": "level", "index": 2, "attempt": 1,
                                 "failing_node_ids": ["٣"]}]},
         "validation_script[0]: failing node id must be an integer, got '٣'"),
        ({"trace_origin": {"strategy": "fixed", "level": "2"}},
         "trace_origin: level must be an integer, got '2'"),
        ({"trace_origin": {"strategy": "scripted", "map": {"03": 1}}},
         "trace_origin: key '03' must be written '3'"),
        ({"trace_origin": {"strategy": "scripted", "map": {"3": True}}},
         "trace_origin: value of '3' must be an integer, got True"),
        ({"implicated_nodes": [2, "4"]}, "implicated_nodes: node id must be an integer, got '4'"),
        ({"increments": [[1, 2.0]]}, "increments: component must be an integer, got 2.0"),
        ({"cdd": {"test_failures": {"2": True}}},
         "cdd.test_failures: value of '2' must be an integer, got True"),
        ({"dad_missing_deps": {"01": ["x"]}}, "dad_missing_deps: key '01' must be written '1'"),
        # float(), str() and list() once read these as 1.0, 0.5, '3' and ['a', 'b'].
        ({"random_failure_rate": True}, "random_failure_rate: must be a number, got True"),
        ({"random_failure_rate": "0.5"}, "random_failure_rate: must be a number, got '0.5'"),
        ({"validation_script": [{"phase": 3, "index": 2, "attempt": 1, "failing_node_ids": [3]}]},
         "validation_script[0]: phase must be a string, got 3"),
        ({"dad_missing_deps": {"1": "ab"}},
         "dad_missing_deps: value of '1' must be a list, got 'ab'"),
        ({"dad_missing_deps": {"1": ["a", 2]}},
         "dad_missing_deps: dependency name must be a string, got 2"),
    ])
    def test_integers_are_exact(self, doc, message):
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert str(err.value) == f"scenario: {message}"

    def test_rate_may_be_a_json_integer(self):
        assert load_scenario({"random_failure_rate": 1}).random_failure_rate == 1.0

    def test_loader_raises_scenario_error(self):
        with pytest.raises(ScenarioError, match=r"^scenario: cdd\.test_failures: "):
            load_scenario({"cdd": {"test_failures": {"x": 1}}})


class TestCliOverride:
    def test_negative_rmax_override_is_a_usage_error(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(VISITED_PLACES_ROWS))
        rc = main(["run", "--methodology", "pdfd", "--hierarchy", str(tree), "--rmax", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: r_max must be >= 0, got -1\n"

    def test_negative_rmax_without_asserts(self, tmp_path):
        """Under ``python -O`` asserts vanish; the check must not be one."""
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(VISITED_PLACES_ROWS))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "treeflow.cli", "run", "--methodology", "pdfd",
             "--hierarchy", str(tree), "--rmax", "-1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: r_max must be >= 0, got -1\n"
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["asserts", "no-asserts"])
    @pytest.mark.parametrize("source", ["document", "flag"])
    def test_budget_above_the_maximum_is_one_error_line(self, tmp_path, source, optimize):
        """A document or ``--rmax`` cannot ask for an arbitrarily long run."""
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(VISITED_PLACES_ROWS))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"r_max": MAX_R_MAX + 1, "random_failure_rate": 1}))
        args = ["--scenario", str(sc)] if source == "document" else ["--rmax", str(MAX_R_MAX + 1)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, *optimize, "-m", "treeflow.cli", "run", "--methodology", "pdfd",
             "--hierarchy", str(tree), *args],
            capture_output=True, text=True, env=env, timeout=60,
        )
        prefix = f"error: {sc}: " if source == "document" else "error: "
        assert proc.returncode == 1
        assert proc.stderr == f"{prefix}r_max must be <= {MAX_R_MAX}, got {MAX_R_MAX + 1}\n"
        assert proc.stdout == ""


class TestVerifyRmax:
    """``verify --rmax`` is held to the scenario's own bound, as ``run --rmax`` is."""

    @pytest.fixture()
    def trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        main(["replay", "--fixture", "pdfd-mvp", "--format", "jsonl-trace", "--out", str(path)])
        return path

    @pytest.mark.parametrize("check", ["bounds", "all"])
    @pytest.mark.parametrize("rmax,message", [
        (-1, "r_max must be >= 0, got -1"),
        (5000, f"r_max must be <= {MAX_R_MAX}, got 5000"),
    ])
    def test_out_of_range_is_one_error_line(self, trace, capsys, rmax, message, check):
        rc = main(["verify", "--trace", str(trace), "--methodology", "pdfd",
                   "--check", check, "--rmax", str(rmax)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("rmax", [0, MAX_R_MAX])
    def test_bounds_of_the_range_are_accepted(self, trace, capsys, rmax):
        rc = main(["verify", "--trace", str(trace), "--methodology", "pdfd",
                   "--check", "bounds", "--rmax", str(rmax)])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("PASS bounded-refinement" if rmax else "FAIL bounded-refinement")
        assert rc == (0 if rmax else 2)


class TestTraceLoader:
    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def _event(self, seq, **drop):
        rec = {"seq": seq, "rule": "DF1", "from": "S0", "to": "S1", "payload": {}}
        for key in drop:
            rec.pop(key)
        return json.dumps(rec)

    def test_missing_field_names_file_line_and_field(self, tmp_path):
        path = self._write(tmp_path, [self._event(1), "", self._event(2, **{"from": True})])
        with pytest.raises(TraceFormatError) as err:
            Trace.read_jsonl(path)
        assert str(err.value) == f"{path}:3: event missing field 'from'"

    def test_invalid_json_names_the_line(self, tmp_path):
        path = self._write(tmp_path, [self._event(1), "{not json"])
        with pytest.raises(TraceFormatError, match=r"trace\.jsonl:2: invalid JSON"):
            Trace.read_jsonl(path)

    def test_non_object_line(self, tmp_path):
        path = self._write(tmp_path, ["[1, 2]"])
        with pytest.raises(TraceFormatError, match=r":1: event must be a JSON object, got list"):
            Trace.read_jsonl(path)

    def test_cli_verify_reports_the_line(self, tmp_path, capsys):
        path = self._write(tmp_path, [self._event(1, to=True)])
        rc = main(["verify", "--trace", str(path), "--methodology", "dfd"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}:1: event missing field 'to'\n"


class TestSnapshotLoader:
    @pytest.fixture()
    def files(self, tmp_path):
        tree = tmp_path / "geo.json"
        tree.write_text(json.dumps(GEO_ROWS))
        snap = tmp_path / "snap.json"
        geo_store().save_snapshot(snap)
        return tree, snap

    def _edit(self, snap, edit):
        doc = json.loads(snap.read_text())
        edit(doc["records"][1])
        snap.write_text(json.dumps(doc))

    def _load(self, tree, snap):
        return TleStore.load_snapshot(load_hierarchy(tree), snap)

    def test_unknown_unit(self, files):
        tree, snap = files
        self._edit(snap, lambda rec: rec.update(unit_id=999))
        with pytest.raises(SnapshotError) as err:
            self._load(tree, snap)
        assert str(err.value) == f"{snap}: records[1].unit_id: unknown unit 999"

    def test_unknown_column(self, files):
        tree, snap = files
        self._edit(snap, lambda rec: rec["cells"].update({"4242": "0"}))
        with pytest.raises(SnapshotError, match=r"records\[1\]\.cells: unknown column 4242 of unit"):
            self._load(tree, snap)

    def test_missing_key(self, files):
        tree, snap = files
        self._edit(snap, lambda rec: rec.pop("subject_id"))
        with pytest.raises(SnapshotError) as err:
            self._load(tree, snap)
        assert str(err.value) == f"{snap}: records[1]: missing field 'subject_id'"

    # records[1] is unit 1 (ContinentParent); its columns 2..8 are int32.
    @pytest.mark.parametrize("edit,message", [
        (lambda rec: rec.update(unit_id=0.9), "records[1].unit_id: must be an integer, got 0.9"),
        (lambda rec: rec.update(unit_id=1.0), "records[1].unit_id: must be an integer, got 1.0"),
        (lambda rec: rec.update(unit_id="1"), "records[1].unit_id: must be an integer, got '1'"),
        (lambda rec: rec.update(subject_id=True),
         "records[1].subject_id: must be an integer, got True"),
        (lambda rec: rec.update(subject_id=None),
         "records[1].subject_id: must be an integer, got None"),
        (lambda rec: rec.update(cells=[3]), "records[1].cells: must be an object, got [3]"),
        (lambda rec: rec["cells"].update({" 3 ": 0}), "records[1].cells: unknown column  3  of unit 1"),
        (lambda rec: rec["cells"].update({"03": 0}), "records[1].cells: unknown column 03 of unit 1"),
        *[
            (lambda rec, raw=raw: rec["cells"].update({"2": raw}),
             f"records[1].cells.2: mask must be an integer or 0x hex text, got {raw!r}")
            for raw in (1.5, " 3 ", "1_0", "21", True, None, "0XF", "0x")
        ],
        (lambda rec: rec["cells"].update({"2": 2**32}),
         f"records[1].cells.2: value {2**32} exceeds 32-bit capacity"),
        (lambda rec: rec["cells"].update({"2": "0x100000000"}),
         f"records[1].cells.2: value {2**32} exceeds 32-bit capacity"),
        (lambda rec: rec["cells"].update({"2": -1}),
         "records[1].cells.2: mask value must be non-negative"),
    ])
    def test_fields_must_be_exact(self, files, edit, message):
        """No float, bool or loose text reads as an id or a cell."""
        tree, snap = files
        self._edit(snap, edit)
        with pytest.raises(SnapshotError) as err:
            self._load(tree, snap)
        assert str(err.value) == f"{snap}: {message}"

    def test_hex_cells_load_in_any_width(self, files):
        """A cell may be an exact integer or 0x hex text, whatever its width."""
        tree, snap = files
        self._edit(snap, lambda rec: rec["cells"].update({"2": "0x3", "4": 3}))
        store = self._load(tree, snap)
        assert store.records[(1, 1)][2] == store.records[(1, 1)][4] == 3

    def test_cli_report_prints_one_error_line(self, files, capsys):
        tree, snap = files
        self._edit(snap, lambda rec: rec.update(unit_id=999))
        rc = main(["report", "--hierarchy", str(tree), "--snapshot", str(snap)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {snap}: records[1].unit_id: unknown unit 999\n"
        assert "Traceback" not in captured.err


def _cli_error(tmp_path, capsys, name, text, argv):
    """Exit code and stderr of one CLI call reading ``text`` from ``name``."""
    path = tmp_path / name
    path.write_text(text)
    rc = main([arg.replace("{doc}", str(path)) for arg in argv])
    captured = capsys.readouterr()
    assert captured.out == ""
    return rc, captured.err, path


class TestPagesLoader:
    @pytest.mark.parametrize("text,message", [
        ("[5]", "pages[0]: must be an object, got int"),
        ("[{}]", "pages[0]: missing field 'parents'"),
        ('[{"parents": [4], "selections": [1]}]',
         "pages[0].selections: must map node ids to true or false, got [1]"),
        ('[{"parents": [4], "selections": {"5": "no"}}]',
         "pages[0].selections: must map node ids to true or false, got {'5': 'no'}"),
        ('[{"parents": [4], "selections": {"x": true}}]',
         "pages[0].selections: keys must be node ids, got {'x': True}"),
        ('[{"parents": ["4"]}]', "pages[0].parents: must be a list of node ids, got ['4']"),
        ('[{"parents": "4"}]', "pages[0].parents: must be a list of node ids, got '4'"),
        ('{"parents": [4]}', "a pages document is a JSON list, got dict"),
    ])
    def test_cli_tle_prints_one_error_line(self, tmp_path, capsys, text, message):
        tree = tmp_path / "geo.json"
        tree.write_text(json.dumps(GEO_ROWS))
        rc, err, path = _cli_error(tmp_path, capsys, "pages.json", text,
                                   ["tle", "--hierarchy", str(tree), "--pages", "{doc}"])
        assert rc == 1
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("key,node", [
        (" 3", 3), ("3 ", 3), ("+3", 3), ("03", 3), ("٣", 3), ("1_0", 10), ("-0", 0),
    ])
    def test_key_must_be_written_as_a_node_id(self, tmp_path, capsys, key, node):
        """int() reads each of these keys as a node id; the loader refuses
        them instead of selecting that node."""
        tree = tmp_path / "geo.json"
        tree.write_text(json.dumps(GEO_ROWS))
        text = json.dumps([{"parents": [4], "selections": {"5": True, key: True}}])
        rc, err, path = _cli_error(tmp_path, capsys, "pages.json", text,
                                   ["tle", "--hierarchy", str(tree), "--pages", "{doc}"])
        assert rc == 1
        assert err == f"error: {path}: pages[0].selections: key {key!r} must be written '{node}'\n"


class TestGraphLoader:
    @pytest.mark.parametrize("doc,message", [
        ({"nodes": [5], "root": 1}, "nodes[0]: must be an object, got int"),
        ({"nodes": [{"id": 1, "deps": [2]}], "root": 1}, "nodes[0].deps: unknown node 2"),
        ({"nodes": [{"id": 1}]}, "missing field 'root'"),
        ({"nodes": [{"name": "a"}], "root": 1}, "nodes[0]: missing field 'id'"),
        ({"nodes": [{"id": 1}, {"id": 1}], "root": 1}, "nodes[1].id: duplicate node id 1"),
        ({"nodes": [{"id": 1}], "root": 7}, "root: unknown node 7"),
        ({"nodes": [{"id": 1}], "root": True}, "root: unknown node True"),
        ({"nodes": [{"id": 1}], "root": [1]}, "root: unknown node [1]"),
        ({"nodes": [{"id": "1"}], "root": 1}, "nodes[0].id: must be an integer, got '1'"),
        ({"nodes": [{"id": 1, "name": 5}], "root": 1}, "nodes[0].name: must be a string, got 5"),
        ({"nodes": [{"id": 1, "deps": "2"}], "root": 1},
         "nodes[0].deps: must be a list of node ids, got '2'"),
        ({"nodes": {"id": 1}, "root": 1}, "nodes: must be a list, got dict"),
        ({"nodes": [{"id": 1, "deps": [2]}, {"id": 2, "deps": [1]}], "root": 1},
         "nodes: the dependencies form a cycle"),
        ({"nodes": [{"id": 1}, {"id": 2, "deps": [3]}, {"id": 3}], "root": 1},
         "queue drained with 2 nodes unprocessed"),
        # Else a hierarchy document; a JSON string holding rows is not the rows.
        ("[1]", "hierarchy document must be a non-empty list of rows"),
        ({}, "hierarchy document must be a non-empty list of rows"),
        ([{"id": 1}], "rows[0]: missing field 'name'"),
    ])
    def test_cli_dad_prints_one_error_line(self, tmp_path, capsys, doc, message):
        rc, err, path = _cli_error(tmp_path, capsys, "graph.json", json.dumps(doc),
                                   ["run", "--methodology", "dad", "--hierarchy", "{doc}"])
        assert rc == 1
        assert err == f"error: {path}: {message}\n"

    def test_long_dependency_chain_is_checked_without_recursion(self):
        n = 5000
        rows = [{"id": i, "deps": [i - 1] if i > 1 else []} for i in range(1, n + 1)]
        assert Dag.from_rows(rows, 1).is_acyclic()
        rows[0]["deps"] = [n]
        with pytest.raises(GraphError, match="cycle"):
            Dag.from_rows(rows, 1)

    def test_a_hierarchy_document_is_read_once(self, tmp_path, monkeypatch):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(GEO_ROWS))
        reads, read_bytes = [], Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
        assert sorted(load_dag(str(tree)).node_names) == sorted(row["id"] for row in GEO_ROWS)
        assert reads == [tree]


class TestJsonBoundary:
    """Every JSON loader refuses text nested past the decoder's recursion
    limit, and numbers JSON cannot hold, with its own one-line error."""

    CASES = {
        "hierarchy": ("tree.json", ["run", "--methodology", "dfd", "--hierarchy", "{doc}"], ""),
        "scenario": ("sc.json", ["run", "--methodology", "pdfd", "--hierarchy", "{tree}",
                                 "--scenario", "{doc}"], ""),
        "trace": ("trace.jsonl", ["verify", "--methodology", "dfd", "--trace", "{doc}"], ":1"),
        "snapshot": ("snap.json", ["report", "--hierarchy", "{tree}", "--snapshot", "{doc}"], ""),
        "pages": ("pages.json", ["tle", "--hierarchy", "{tree}", "--pages", "{doc}"], ""),
        "graph": ("graph.json", ["run", "--methodology", "dad", "--hierarchy", "{doc}"], ""),
    }

    @pytest.mark.parametrize("text,reason", [
        ("[" * 100_000, "nested too deeply"),
        ("[Infinity]", "Infinity is not a finite number"),
        ('{"nodes": [{"id": 1e999}], "root": NaN}', "1e999 is not a finite number"),
    ])
    @pytest.mark.parametrize("loader", sorted(CASES))
    def test_one_typed_error_naming_the_file(self, tmp_path, capsys, loader, text, reason):
        name, argv, line = self.CASES[loader]
        tree = tmp_path / "geo.json"
        tree.write_text(json.dumps(GEO_ROWS))
        argv = [arg.replace("{tree}", str(tree)) for arg in argv]
        rc, err, path = _cli_error(tmp_path, capsys, name, text, argv)
        assert rc == 1
        assert err == f"error: {path}{line}: invalid JSON: {reason}\n"

    @pytest.mark.parametrize("loader", sorted(CASES))
    def test_bytes_that_are_not_utf8_are_one_typed_error(self, tmp_path, capsys, loader):
        """A JSON document is UTF-8: a Latin-1 byte is refused, whatever the
        locale would have made of it."""
        name, argv, _ = self.CASES[loader]
        tree = tmp_path / "geo.json"
        tree.write_text(json.dumps(GEO_ROWS))
        path = tmp_path / name
        path.write_bytes(b'[{"name": "Z\xfcrich"}]\n')
        rc = main([arg.replace("{tree}", str(tree)).replace("{doc}", str(path)) for arg in argv])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == f"error: {path}: invalid JSON: not UTF-8 at byte 12\n"

    def test_documents_are_read_as_utf8_under_the_c_locale(self, tmp_path):
        """The C locale's encoding is ASCII; each reader decodes UTF-8."""
        rows = [dict(row, name="Zürich") if row["id"] == 3 else row for row in VISITED_PLACES_ROWS]
        tree = tmp_path / "tree.json"
        tree.write_bytes(json.dumps(rows, ensure_ascii=False).encode())
        trace = tmp_path / "trace.jsonl"
        trace.write_bytes('{"seq": 1, "rule": "DF1", "from": "S0", "to": "S1", '
                          '"payload": {"name": "Zürich ☃"}}\n'.encode())
        script = ("import sys; from treeflow.hierarchy import load_hierarchy; "
                  "from treeflow.trace import Trace; "
                  "print(ascii(load_hierarchy(sys.argv[1]).node(3).name), "
                  "ascii(Trace.read_jsonl(sys.argv[2]).events[0].payload['name']))")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script, str(tree), str(trace)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "'Z\\xfcrich' 'Z\\xfcrich \\u2603'\n"


class TestBenchStepProbe:
    def test_probe_dependent_step_counts_raise(self, monkeypatch):
        """A raised error, not an assert, so ``python -O`` keeps the check."""
        calls, lookup = itertools.count(), TleStore.lookup

        def varying(self, subject, node):
            if next(calls) % 2:
                self.counter.tick()
            return lookup(self, subject, node)

        monkeypatch.setattr(TleStore, "lookup", varying)
        with pytest.raises(bench.StepCountError, match="must be probe-independent: lookup"):
            bench._measure_store(uniform_hierarchy([1, 1, 4, 16]), "tiny")
