"""Mutated hierarchy documents through the CLI: every one either runs or
fails with exactly one ``error:`` line and exit code 1, never a traceback."""

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

SRC = Path(__file__).resolve().parents[1] / "src"
FIELDS = ("id", "name", "name_type_id", "width_class", "parent_id", "child_index", "level")
ODD_VALUES = (None, "x", "3", "", 1.5, True, False, [1], {"a": 1}, -1, 0, 31, 32, 64, 2**40,
              "int32", "var:0", "var:x", "var:3", "int16")
WIDTHS = ("int32", "int64", "var:2", "var:3")


@st.composite
def trees(draw):
    """A valid tree of up to 12 nodes; width classes may be too small for
    the children, which the loader reports as a capacity error."""
    rows = [{"id": 0, "name": "root", "name_type_id": None, "width_class": draw(st.sampled_from(WIDTHS)),
             "parent_id": None, "child_index": 0, "level": 1}]
    for i in range(1, draw(st.integers(1, 12))):
        parent = rows[draw(st.integers(0, i - 1))]
        siblings = sum(r["parent_id"] == parent["id"] for r in rows)
        rows.append({"id": i, "name": f"n{i}", "name_type_id": None,
                     "width_class": draw(st.sampled_from(WIDTHS)), "parent_id": parent["id"],
                     "child_index": siblings, "level": parent["level"] + 1})
    return rows


def descendants(rows, node_id):
    out, frontier = set(), [node_id]
    while frontier:
        parent = frontier.pop()
        for r in rows:
            if isinstance(r, dict) and r.get("parent_id") == parent and r.get("id") not in out:
                out.add(r.get("id"))
                frontier.append(r.get("id"))
    return out


@st.composite
def documents(draw):
    rows = draw(trees())
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        kind = draw(st.sampled_from(("drop", "retype", "non-dict", "duplicate", "dangle", "cycle",
                                     "second-root")))
        if not isinstance(row, dict):
            continue
        if kind == "drop":
            row.pop(draw(st.sampled_from(FIELDS)), None)
        elif kind == "retype":
            row[draw(st.sampled_from(FIELDS))] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "non-dict":
            rows[k] = draw(st.sampled_from((None, 5, "row", [1, 2], 1.5, True)))
        elif kind == "duplicate":
            rows.append(dict(row))
        elif kind == "dangle":
            row["parent_id"] = 10**6
        elif kind == "cycle":
            row["parent_id"] = draw(st.sampled_from(sorted(descendants(rows, row.get("id")) | {row.get("id")},
                                                        key=repr)))
        else:
            rows.append({**row, "id": 10**5 + k, "parent_id": None, "level": 1})
    if draw(st.sampled_from(range(20))) == 19:
        return draw(st.sampled_from(([], {}, {"rows": rows}, "rows", 5, None)))
    return rows


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


def _run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(), methodology=st.sampled_from(("dfd", "bfd", "dad", "pdfd", "pbfd")))
def test_mutated_hierarchy_runs_or_fails_with_one_error_line(workdir, doc, methodology):
    path = workdir / "tree.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["run", "--methodology", methodology, "--hierarchy", str(path),
                           "--out", str(workdir / "trace.jsonl")])
    assert code in (0, 1)
    assert "Traceback" not in out + err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        assert err == ""


def test_row_error_without_asserts(tmp_path):
    """Under ``python -O`` the loader still rejects a bad row with a typed error."""
    rows = [{"id": 1, "name": "r", "parent_id": None, "child_index": 0, "level": 1, "width_class": "int32"},
            {"id": 2, "name": "a", "parent_id": 1, "child_index": 0, "level": None, "width_class": "int32"}]
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(rows))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "treeflow.cli", "run", "--methodology", "pdfd", "--hierarchy", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {path}: rows[1].level: must be an integer, got None\n"
    assert proc.stdout == ""
