"""Mutated scenario, trace, snapshot, pages and graph documents through the
CLI: every one runs, ends in a verdict or error state, or fails with exactly
one ``error:`` line and exit code 1, never a traceback.

Each document starts from a valid one and takes one to three mutations: a
value retyped, a key or item dropped, or a map key renamed.  The odd values
are wrong in type or sign, not in size: a scenario's ``r_max`` and a
trace's ``L`` or ``r_max`` set run and check length, so a huge one is a
long run rather than a boundary failure."""

import copy
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeflow.cli import main
from treeflow.fixtures import GEO, geo_hierarchy, geo_store, pdfd_mvp_scenario, visited_places_hierarchy
from treeflow.hierarchy import dump_hierarchy
from treeflow.scenario import dump_scenario

SRC = Path(__file__).resolve().parents[1] / "src"
ODD_VALUES = (None, "x", "3", "", "0x1f", 1.5, True, False, [], [1], {"a": 1}, -1, 0, 2, 7,
              float("inf"), [[["deep"]]])
ODD_KEYS = ("x", "-1", "1.5", "", "9999")


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


@st.composite
def mutated(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(list(_paths(doc))))
        if not where:
            doc = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
            continue
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        last = where[-1]
        kind = draw(st.sampled_from(("retype", "drop", "rekey")))
        if kind == "drop":
            del parent[last]
        elif kind == "rekey" and isinstance(parent, dict):
            parent[draw(st.sampled_from(ODD_KEYS))] = parent.pop(last)
        else:
            parent[last] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return doc


def _scenario_base():
    doc = dump_scenario(pdfd_mvp_scenario())
    doc["dad_missing_deps"] = {"1": ["extra"]}
    doc["cdd"]["test_failures"] = {"2": 1}
    doc["increments"] = [[1, 2, 3], [4, 5]]
    doc["implicated_nodes"] = [2, 4]
    return doc


def _trace_base():
    out = StringIO()
    with redirect_stdout(out):
        main(["replay", "--fixture", "pdfd-mvp", "--format", "jsonl-trace"])
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _snapshot_base(tmp):
    path = tmp / "base-snapshot.json"
    geo_store().save_snapshot(path)
    return json.loads(path.read_text())


PAGES_BASE = [
    {"parents": [GEO["anchor"]], "selections": {str(GEO["north_america"]): True}},
    {"parents": [GEO["north_america"]],
     "selections": {str(GEO["united_states"]): True, str(GEO["canada"]): False}},
]
GRAPH_BASE = {"nodes": [{"id": 1, "name": "a"}, {"id": 2, "name": "b", "deps": [1]},
                        {"id": 3, "deps": [1, 2]}, {"id": 4, "deps": [3]}], "root": 1}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("documents")
    (tmp / "visited.json").write_text(json.dumps(dump_hierarchy(visited_places_hierarchy())))
    (tmp / "geo.json").write_text(json.dumps(dump_hierarchy(geo_hierarchy())))
    return tmp


def _run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


@FUZZ
@given(doc=mutated(_scenario_base()), methodology=st.sampled_from(("pdfd", "pbfd", "dad", "cdd")))
def test_mutated_scenario(workdir, doc, methodology):
    path = workdir / "scenario.json"
    path.write_text(json.dumps(doc))
    _check(*_run(["run", "--methodology", methodology, "--hierarchy", str(workdir / "visited.json"),
                  "--scenario", str(path), "--out", str(workdir / "trace.jsonl")]))


@FUZZ
@given(doc=mutated(_trace_base()))
def test_mutated_trace(workdir, doc):
    path = workdir / "trace.jsonl"
    lines = doc if isinstance(doc, list) else [doc]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    _check(*_run(["verify", "--methodology", "pdfd", "--trace", str(path)]))


@pytest.fixture(scope="module")
def snapshot_base(tmp_path_factory):
    return _snapshot_base(tmp_path_factory.mktemp("snapshot"))


@FUZZ
@given(data=st.data())
def test_mutated_snapshot(workdir, snapshot_base, data):
    doc = data.draw(mutated(snapshot_base))
    path = workdir / "snapshot.json"
    path.write_text(json.dumps(doc))
    _check(*_run(["report", "--hierarchy", str(workdir / "geo.json"), "--snapshot", str(path)]))


@FUZZ
@given(doc=mutated(PAGES_BASE))
def test_mutated_pages(workdir, doc):
    path = workdir / "pages.json"
    path.write_text(json.dumps(doc))
    _check(*_run(["tle", "--hierarchy", str(workdir / "geo.json"), "--pages", str(path),
                  "--out", str(workdir / "tle.jsonl")]))


@FUZZ
@given(doc=mutated(GRAPH_BASE))
def test_mutated_graph(workdir, doc):
    path = workdir / "graph.json"
    path.write_text(json.dumps(doc))
    _check(*_run(["run", "--methodology", "dad", "--hierarchy", str(path),
                  "--out", str(workdir / "dad.jsonl")]))


def test_pages_error_without_asserts(tmp_path):
    """Under ``python -O`` a bad pages document is still a typed error."""
    (tmp_path / "geo.json").write_text(json.dumps(dump_hierarchy(geo_hierarchy())))
    pages = tmp_path / "pages.json"
    pages.write_text("[{}]")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "treeflow.cli", "tle", "--hierarchy", str(tmp_path / "geo.json"),
         "--pages", str(pages)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {pages}: pages[0]: missing field 'parents'\n"
    assert proc.stdout == ""
