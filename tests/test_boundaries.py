"""Bad inputs fail at the boundary with a typed error, never an assert."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treeflow import bench
from treeflow.cli import main
from treeflow.fixtures import GEO_ROWS, VISITED_PLACES_ROWS, geo_store, uniform_hierarchy
from treeflow.hierarchy import load_hierarchy
from treeflow.scenario import Scenario, ScenarioError, load_scenario
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

    def test_cli_report_prints_one_error_line(self, files, capsys):
        tree, snap = files
        self._edit(snap, lambda rec: rec.update(unit_id=999))
        rc = main(["report", "--hierarchy", str(tree), "--snapshot", str(snap)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {snap}: records[1].unit_id: unknown unit 999\n"
        assert "Traceback" not in captured.err


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
