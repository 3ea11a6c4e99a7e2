"""End-to-end command-line behavior and exit-code conventions."""

import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from treeflow.basic_machines import run_dfd
from treeflow.cli import main
from treeflow.fixtures import GEO, GEO_REPORT_LINES, GEO_ROWS, geo_store
from treeflow.hierarchy import dump_hierarchy
from treeflow.fixtures import perfect_tree
from treeflow.scenario import Scenario, TraceOriginStrategy, dump_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def geo_file(tmp_path):
    p = tmp_path / "geo.json"
    p.write_text(json.dumps(GEO_ROWS))
    return p


@pytest.fixture()
def tree_file(tmp_path):
    p = tmp_path / "tree.json"
    p.write_text(json.dumps(dump_hierarchy(perfect_tree(2, 3))))
    return p


def test_importing_the_package_loads_no_submodule():
    """Each command imports what it needs; the package itself imports nothing."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    code = "import sys, treeflow; print(sorted(m for m in sys.modules if m.startswith('treeflow.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_csp_imports_no_store_bench_or_fixture_module(tmp_path):
    """``verify`` imports its monitors only, not every command's modules."""
    trace = tmp_path / "trace.jsonl"
    run_dfd(perfect_tree(2, 3)).write_jsonl(trace)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    code = (
        "import json, sys\n"
        "from treeflow.cli import main\n"
        f"code = main(['verify', '--methodology', 'dfd', '--check', 'csp', '--trace', {str(trace)!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('treeflow.'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    verdict, last = proc.stdout.splitlines()
    assert verdict == "PASS csp-conformance[dfd]"
    code, loaded = json.loads(last)
    assert code == 0 and "treeflow.csp" in loaded
    assert not set(loaded) & {"treeflow.tle", "treeflow.bench", "treeflow.fixtures"}


# Counts the generated checker functions exec'd (CSP matchers, rule
# renderers and descent checks) at import, then runs ``verify --check all``
# on the trace named by argv[1] and reports what that built.
LAZY_BUILD_PROBE = """
import builtins, contextlib, io, json, sys
kinds, real_exec = [], builtins.exec

def counting_exec(source, *args, **kwargs):
    if isinstance(source, str) and source.startswith(("def match(", "def render(", "def descent(")):
        kinds.append(source[4:source.index("(")])
    return real_exec(source, *args, **kwargs)

builtins.exec = counting_exec
from treeflow import csp, verify
from treeflow.cli import main
at_import = len(kinds)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["verify", "--methodology", "pdfd", "--check", "all", "--trace", sys.argv[1]])
print(json.dumps({
    "at_import": at_import, "code": code, "verdicts": out.getvalue().splitlines(),
    "execs": {kind: kinds.count(kind) for kind in ("match", "render", "descent")},
    "tables": csp.table.cache_info().currsize,
    "rows": {m: sorted(r for r, spec in rows.items() if {"render", "descent"} & vars(spec).keys())
             for m, rows in verify.RULE_TABLES.items()},
}))
"""


def test_verify_builds_only_the_checked_machine(tmp_path):
    """Importing the monitors compiles no checker; ``verify --check all``
    on a pdfd trace builds the pdfd table and compiles pdfd rows only."""
    from treeflow.csp import TABLE_SPECS
    from treeflow.verify import PDFD_RULES, RULE_TABLES

    trace = tmp_path / "pdfd.jsonl"
    assert main(["replay", "--fixture", "pdfd-mvp", "--format", "jsonl-trace",
                 "--out", str(trace)]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    optimize = ["-O"] if sys.flags.optimize else []
    proc = subprocess.run([sys.executable, *optimize, "-c", LAZY_BUILD_PROBE, str(trace)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["at_import"] == 0
    assert report["code"] == 0
    assert report["verdicts"] and all(line.startswith("PASS ") for line in report["verdicts"])
    assert report["tables"] == 1
    assert report["execs"]["match"] == sum(map(len, TABLE_SPECS["pdfd"].values()))
    assert report["execs"]["render"] == sum(
        len(spec.events.alternatives) for spec in PDFD_RULES.values() if spec.events)
    assert 0 < report["execs"]["descent"] <= 9
    assert report["rows"] == {m: sorted(PDFD_RULES) if m == "pdfd" else [] for m in RULE_TABLES}


class TestOutFile:
    """``--out`` writes exactly what the command prints, over any old file."""

    def _commands(self, geo_file, tree_file, tmp_path):
        pages = tmp_path / "pages.json"
        pages.write_text(json.dumps([{"parents": [GEO["anchor"]], "selections": {}}]))
        return {
            "run": ["run", "--methodology", "dfd", "--hierarchy", str(tree_file)],
            "run-report": ["run", "--methodology", "pdfd", "--hierarchy", str(geo_file),
                           "--format", "text-report"],
            "replay": ["replay", "--fixture", "pbfd-mvp", "--format", "jsonl-trace"],
            "replay-report": ["replay", "--fixture", "pdfd-mvp"],
            "report": ["report", "--fixture", "pbfd-mvp"],
            "tle": ["tle", "--hierarchy", str(geo_file), "--pages", str(pages)],
            "bench": ["bench"],
        }

    @pytest.mark.parametrize("name", [
        "run", "run-report", "replay", "replay-report", "report", "tle", "bench",
    ])
    def test_out_file_equals_stdout(self, name, geo_file, tree_file, tmp_path, capsys):
        argv = self._commands(geo_file, tree_file, tmp_path)[name]
        code = main(argv)
        printed = capsys.readouterr().out
        out = tmp_path / "out.txt"
        out.write_text("stale line\n" * 20_000)
        assert main(argv + ["--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_out_dev_null_stays_a_device(self, tree_file, capsys):
        code = main(["run", "--methodology", "dfd", "--hierarchy", str(tree_file),
                     "--out", os.devnull])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.parametrize("name", ["run", "report"])
    def test_out_directory_is_one_error_line(self, name, geo_file, tree_file, tmp_path, capsys):
        argv = self._commands(geo_file, tree_file, tmp_path)[name]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


class TestRun:
    def test_pbfd_failure_free_exit_zero(self, geo_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main([
            "run", "--methodology", "pbfd", "--hierarchy", str(geo_file),
            "--rmax", "50", "--out", str(out),
        ])
        assert code == 0
        last = json.loads(out.read_text().splitlines()[-1])
        assert last["rule"] == "PB8"

    def test_always_fail_exit_two(self, tree_file, tmp_path):
        h = perfect_tree(2, 3)
        sc = Scenario(
            r_max=1,
            trace_origin=TraceOriginStrategy.fixed(2),
            validation_script={("level", 2, 1): {n.id for n in h.level(2)}},
        )
        sc_file = tmp_path / "sc.json"
        sc_file.write_text(json.dumps(dump_scenario(sc)))
        code = main([
            "run", "--methodology", "pdfd", "--hierarchy", str(tree_file),
            "--scenario", str(sc_file), "--out", str(tmp_path / "t.jsonl"),
        ])
        assert code == 2
        trace = (tmp_path / "t.jsonl").read_text().splitlines()
        last = json.loads(trace[-1])
        assert last["payload"]["reason"] == "refinement_exhausted"

    def test_basic_machines_run(self, tree_file, tmp_path):
        for methodology in ("dad", "dfd", "bfd", "cdd"):
            out = tmp_path / f"{methodology}.jsonl"
            code = main([
                "run", "--methodology", methodology,
                "--hierarchy", str(tree_file), "--out", str(out),
            ])
            assert code == 0, methodology
            assert out.read_text().strip()

    def test_usage_error(self):
        assert main(["run", "--methodology", "pdfd"]) == 1


class TestReplay:
    def test_pdfd_mvp_summary(self, capsys):
        assert main(["replay", "--fixture", "pdfd-mvp"]) == 0
        out = capsys.readouterr().out
        assert "outcome: T" in out
        assert "{2: 3, 3: 3, 4: 2, 5: 1}" in out

    def test_pbfd_mvp_trace(self, tmp_path):
        out = tmp_path / "pbfd.jsonl"
        assert main([
            "replay", "--fixture", "pbfd-mvp", "--format", "jsonl-trace",
            "--out", str(out),
        ]) == 0
        rules = [json.loads(l)["rule"] for l in out.read_text().splitlines()]
        assert rules[-1] == "PB8"
        assert "PB3" in rules


class TestVerify:
    def test_all_checks_on_replayed_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        main(["replay", "--fixture", "pdfd-mvp", "--format", "jsonl-trace",
              "--out", str(trace_file)])
        code = main([
            "verify", "--trace", str(trace_file), "--methodology", "pdfd",
            "--check", "all",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") >= 6
        assert "FAIL" not in out

    def test_bounds_under_a_lower_cap_name_the_first_level_over_it(self, tmp_path, capsys):
        """The replay spends two attempts at level 2 by event 14."""
        trace_file = tmp_path / "t.jsonl"
        main(["replay", "--fixture", "pdfd-mvp", "--format", "jsonl-trace",
              "--out", str(trace_file)])
        capsys.readouterr()
        code = main(["verify", "--trace", str(trace_file), "--methodology", "pdfd",
                     "--check", "bounds", "--rmax", "1"])
        assert code == 2
        assert capsys.readouterr().out.splitlines() == [
            "FAIL bounded-refinement (event 14: attempts[2]=2 exceeds cap 1)"]

    @pytest.mark.parametrize("forged", ["1234", {"a": 1, "b": 2, "c": 3, "d": 4}])
    def test_measure_keys_of_older_writers_are_not_read(self, tmp_path, capsys, forged):
        """The monitors compute the measure; a ``measure_pre`` in a record,
        as older writers wrote it, is not read, whatever its value."""
        trace_file = tmp_path / "t.jsonl"
        main(["replay", "--fixture", "pdfd-mvp", "--format", "jsonl-trace",
              "--out", str(trace_file)])
        lines = trace_file.read_text().splitlines()
        rec = json.loads(lines[3])
        rec["measure_pre"] = forged
        lines[3] = json.dumps(rec)
        trace_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["verify", "--trace", str(trace_file), "--methodology", "pdfd",
                     "--check", "measure"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out.splitlines() == ["PASS rule-legality", "PASS measure-descent"]

    def test_tampered_trace_fails(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        main(["replay", "--fixture", "pdfd-mvp", "--format", "jsonl-trace",
              "--out", str(trace_file)])
        lines = trace_file.read_text().splitlines()
        rec = json.loads(lines[4])
        assert rec["rule"] == "PD2b" and rec["payload"]["status_changes"]
        rec["payload"]["status_changes"] = {}  # the level it advances from stays unfinalized
        lines[4] = json.dumps(rec)
        trace_file.write_text("\n".join(lines) + "\n")
        code = main([
            "verify", "--trace", str(trace_file), "--methodology", "pdfd",
            "--check", "measure",
        ])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out


_HYBRID_CHECKS = {
    "measure": ["PASS rule-legality", "PASS measure-descent"],
    "bounds": ["PASS bounded-refinement"],
    "finalization": ["PASS finalization-invariance"],
    "deadlock": ["PASS deadlock-freeness[{m}]"],
    "csp": ["PASS csp-conformance[{m}]"],
    "all": ["PASS well-formed", "PASS rule-legality", "PASS measure-descent",
            "PASS bounded-refinement", "PASS finalization-invariance",
            "PASS deadlock-freeness[{m}]", "PASS csp-conformance[{m}]"],
}
# A basic machine has no measure: the hybrid-only checks fall back to
# structural validation.
_BASIC_CHECKS = {
    "measure": ["PASS well-formed"],
    "bounds": ["PASS well-formed"],
    "finalization": ["PASS well-formed"],
    "deadlock": ["PASS well-formed"],
    "csp": ["PASS csp-conformance[{m}]"],
    "all": ["PASS well-formed", "PASS csp-conformance[{m}]"],
}


class TestVerifyCheckSelection:
    @pytest.fixture()
    def traces(self, tmp_path, tree_file):
        files = {m: tmp_path / f"{m}.jsonl" for m in ("pdfd", "pbfd", "dfd")}
        for m in ("pdfd", "pbfd"):
            main(["replay", "--fixture", f"{m}-mvp", "--format", "jsonl-trace",
                  "--out", str(files[m])])
        main(["run", "--methodology", "dfd", "--hierarchy", str(tree_file),
              "--out", str(files["dfd"])])
        return files

    @pytest.mark.parametrize("check", sorted(_HYBRID_CHECKS))
    @pytest.mark.parametrize("m", ["pdfd", "pbfd", "dfd"])
    def test_each_check_prints_exactly_its_verdicts(self, traces, capsys, m, check):
        capsys.readouterr()
        code = main(["verify", "--trace", str(traces[m]), "--methodology", m, "--check", check])
        expected = (_BASIC_CHECKS if m == "dfd" else _HYBRID_CHECKS)[check]
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [line.format(m=m) for line in expected]


class TestVerifyForgedPayloads:
    """A payload value of the wrong type that a monitor reads is a FAIL line
    naming the event, exit 2, never a traceback or a bare error."""

    def _forge(self, path, rule, seq=None, **values):
        """Set ``values`` in the payload of the first ``rule`` event, or of
        event ``seq``."""
        lines = path.read_text().splitlines()
        pos = next(i for i, line in enumerate(lines)
                   if json.loads(line)["rule"] == rule or json.loads(line)["seq"] == seq)
        rec = json.loads(lines[pos])
        rec["payload"].update(values)
        lines[pos] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        return rec

    def _verify(self, capsys, path, m, check="all"):
        capsys.readouterr()
        code = main(["verify", "--trace", str(path), "--methodology", m, "--check", check])
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, captured.out.splitlines()

    def test_bfd_string_level(self, tree_file, tmp_path, capsys):
        path = tmp_path / "bfd.jsonl"
        main(["run", "--methodology", "bfd", "--hierarchy", str(tree_file), "--out", str(path)])
        seq = self._forge(path, "BF4", level="x")["seq"]
        code, out = self._verify(capsys, path, "bfd")
        assert code == 2
        assert out == [
            "PASS well-formed",
            f"FAIL csp-conformance[bfd] (event {seq}: annotation failed: "
            "unsupported operand type(s) for -: 'str' and 'int')",
        ]

    def test_pdfd_string_origin_level(self, tmp_path, capsys):
        """The origin level is read from the target label S1R(j): a payload
        ``j``, as older writers wrote it, is not read, whatever its value."""
        path = tmp_path / "pdfd.jsonl"
        main(["replay", "--fixture", "pdfd-mvp", "--format", "jsonl-trace", "--out", str(path)])
        self._forge(path, "PD2a", j="x")
        assert self._verify(capsys, path, "pdfd") == (0, [
            "PASS well-formed",
            "PASS rule-legality",
            "PASS measure-descent",
            "PASS bounded-refinement",
            "PASS finalization-invariance",
            "PASS deadlock-freeness[pdfd]",
            "PASS csp-conformance[pdfd]",
        ])

    def test_pdfd_string_level_count(self, tmp_path, capsys):
        path = tmp_path / "pdfd.jsonl"
        main(["replay", "--fixture", "pdfd-mvp", "--format", "jsonl-trace", "--out", str(path)])
        self._forge(path, "PD1", L="x")
        code, out = self._verify(capsys, path, "pdfd", check="csp")
        assert code == 2
        assert out == ["FAIL csp-conformance[pdfd] (event 1: L='x' is not an integer)"]

    # A run parameter or payload integer forged on the pdfd replay: the
    # event, the payload edit, the monitors that read the field, and what
    # they and CSP conformance print for it.  Each value but "x" is one
    # int() reads as the integer the engine wrote.
    _RUN_PARAMETERS = ("rule-legality", "measure-descent", "bounded-refinement")
    _FORGED = {
        "L": (1, lambda p: p.update(L="x"), _RUN_PARAMETERS,
              "L must be an integer, got 'x'", "L='x' is not an integer"),
        "L-string": (1, lambda p: p.update(L="6"), _RUN_PARAMETERS,
                     "L must be an integer, got '6'", "L='6' is not an integer"),
        "L-float": (1, lambda p: p.update(L=6.0), _RUN_PARAMETERS,
                    "L must be an integer, got 6.0", "L=6.0 is not an integer"),
        "r_max-string": (1, lambda p: p.update(r_max="60"), _RUN_PARAMETERS,
                         "r_max must be an integer, got '60'", None),
        "r_max-float": (1, lambda p: p.update(r_max=60.0), _RUN_PARAMETERS,
                        "r_max must be an integer, got 60.0", None),
        "k-float": (1, lambda p: p["k"].update({"2": 1.0}), _RUN_PARAMETERS,
                    "k['2'] must be an integer, got 1.0", None),
        "levels-float-id": (1, lambda p: p["levels"].update({"1": [1.0]}), _RUN_PARAMETERS,
                            "levels['1'] must be a list of node ids, got [1.0]", None),
        "levels-key": (1, lambda p: p["levels"].update({"01": p["levels"].pop("1")}),
                       _RUN_PARAMETERS, "levels key '01' must be written '1'", None),
        "level-string": (7, lambda p: p.update(level="3"), ("rule-legality",),
                         "level must be an integer, got '3'", None),
        "range_end-string": (9, lambda p: p.update(range_end="3"), ("rule-legality",),
                             "range_end must be an integer, got '3'", None),
        "failing-float": (7, lambda p: p.update(failing=[4.0, 5]), ("rule-legality",),
                          "failing must be a list of node ids, got [4.0, 5]", None),
    }

    def _forged_run_parameters(self, tmp_path, forged):
        """The replayed pdfd trace forged as ``_FORGED[forged]`` names, or
        with the label of its first refinement entry ``S1R(j)``, and the
        next event's ``from``, forged to ``forged`` with j filled in
        (``S1R(x)`` for "label"); and the lines ``--check all`` must print
        for it.  CSP conformance reads the label through ``parse_label``, so
        it fails each forged label with the monitors' text."""
        path = tmp_path / "pdfd.jsonl"
        main(["replay", "--fixture", "pdfd-mvp", "--format", "jsonl-trace", "--out", str(path)])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        if forged in self._FORGED:
            seq, edit, monitors, detail, csp = self._FORGED[forged]
            pos = next(i for i, rec in enumerate(records) if rec["seq"] == seq)
            edit(records[pos]["payload"])
            rule = records[pos]["rule"]
            unreadable = f"(event {seq}: {rule} payload unreadable: {detail})"
            csp = f"FAIL csp-conformance[pdfd] (event {seq}: {csp})" if csp else None
        else:
            pos = next(i for i, rec in enumerate(records) if rec["to"].startswith("S1R("))
            j = int(records[pos]["to"][4:-1])
            label = "S1R(x)" if forged == "label" else forged.format(j=j, digit=chr(0x660 + j))
            records[pos]["to"] = records[pos + 1]["from"] = label
            seq, rule, monitors = records[pos]["seq"], records[pos]["rule"], self._RUN_PARAMETERS
            unreadable = f"(event {seq}: {rule} target {label} is not a state label)"
            csp = f"FAIL csp-conformance[pdfd] {unreadable}"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        return path, [
            "PASS well-formed",
            *(f"FAIL {check} {unreadable}" if check in monitors else f"PASS {check}"
              for check in self._RUN_PARAMETERS),
            "PASS finalization-invariance",
            "PASS deadlock-freeness[pdfd]",
            csp or "PASS csp-conformance[pdfd]",
        ]

    @pytest.mark.parametrize("forged", [
        "label", *_FORGED,
        # An index int() reads but the label grammar refuses: a sign, a
        # space, a wrong bracket, a leading zero, an Arabic-Indic digit.
        pytest.param("S1R(+{j})", id="plus"),
        pytest.param("S1R( {j})", id="space"),
        pytest.param("S1R({j}]", id="bracket"),
        pytest.param("S1R(0{j})", id="zero"),
        pytest.param("S1R({digit})", id="arabic-indic"),
    ])
    def test_pdfd_unreadable_run_parameters(self, tmp_path, capsys, forged):
        path, expected = self._forged_run_parameters(tmp_path, forged)
        assert self._verify(capsys, path, "pdfd") == (2, expected)

    def test_pdfd_unreadable_level_count_without_asserts(self, tmp_path):
        """Under ``python -O`` asserts vanish; the verdicts must not need them."""
        path, expected = self._forged_run_parameters(tmp_path, "L-string")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "treeflow.cli", "verify", "--trace", str(path),
             "--methodology", "pdfd", "--check", "all"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (2, "")
        assert proc.stdout.splitlines() == expected

    def test_pdfd_huge_level_count_checks_in_bounded_time(self, tmp_path):
        """The measure's budget over levels 1..L takes time independent of L:
        L forged to 10**30 gets the verdicts of any large L, and the
        monitor's M descends through the whole trace."""
        path = tmp_path / "pdfd.jsonl"
        main(["replay", "--fixture", "pdfd-mvp", "--format", "jsonl-trace", "--out", str(path)])
        self._forge(path, "PD1", L=10**30)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "treeflow.cli", "verify", "--trace", str(path),
             "--methodology", "pdfd", "--check", "all"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert (proc.returncode, proc.stderr) == (2, "")
        assert proc.stdout.splitlines() == [
            "PASS well-formed",
            "FAIL rule-legality (event 45: PD7 before the last level)",
            "PASS measure-descent",
            "PASS bounded-refinement",
            "PASS finalization-invariance",
            "PASS deadlock-freeness[pdfd]",
            "FAIL csp-conformance[pdfd] (event 45: illegal event 'top_down_reaches_L5.6')",
        ]


class TestReportAndBench:
    def test_report_from_fixture(self, capsys):
        assert main(["report", "--fixture", "pbfd-mvp"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == GEO_REPORT_LINES

    def test_report_from_snapshot(self, geo_file, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        geo_store().save_snapshot(snap)
        assert main([
            "report", "--hierarchy", str(geo_file), "--snapshot", str(snap),
        ]) == 0
        assert capsys.readouterr().out.strip().splitlines() == GEO_REPORT_LINES

    def test_report_missing_snapshot_usage_error(self):
        assert main(["report"]) == 1

    def test_bench_prints_ratio(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "1/32" in out
        assert "lookup" in out

    def test_bench_output_pinned(self, capsys):
        """Every table ``bench`` prints, byte for byte: (size, sha256)."""
        assert main(["bench"]) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (
            708, "480f392b2d15ddb1d74f56a512e52fd840ae2e72a0764a390ea068f5e988dbc6")

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["replay", "--fixture", "pbfd-mvp", "--format", "jsonl-trace", "--out", str(a)])
        main(["replay", "--fixture", "pbfd-mvp", "--format", "jsonl-trace", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTle:
    def test_paged_traversal(self, geo_file, tmp_path):
        pages = [
            {"parents": [GEO["anchor"]], "selections": {str(GEO["asia"]): True}},
            {"parents": [GEO["asia"]], "selections": {str(GEO["china"]): True}},
        ]
        pages_file = tmp_path / "pages.json"
        pages_file.write_text(json.dumps(pages))
        out = tmp_path / "tle.jsonl"
        code = main([
            "tle", "--hierarchy", str(geo_file), "--pages", str(pages_file),
            "--out", str(out),
        ])
        assert code == 0
        rules = [json.loads(l)["rule"] for l in out.read_text().splitlines()]
        assert rules[0] == "TLE1" and rules[-1] == "TLE9" and "TLE7" in rules
