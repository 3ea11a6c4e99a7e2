"""Serialization round-trips for scenarios and traces, and the writer of
output files."""

import os
import stat

import pytest

from treeflow.fixtures import GEO, geo_store, pdfd_mvp_scenario, visited_places_hierarchy
from treeflow.hybrid_machines import run_pdfd
from treeflow.jsondoc import write_text
from treeflow.scenario import (
    OriginKind,
    Scenario,
    TraceOriginStrategy,
    dump_scenario,
    load_scenario,
)
from treeflow.trace import Trace


class TestScenarioRoundTrip:
    def test_mvp_scenario_survives_dump_and_load(self):
        original = pdfd_mvp_scenario()
        again = load_scenario(dump_scenario(original))
        assert again.r_max == original.r_max
        assert again.k_thresholds == original.k_thresholds
        assert again.trace_origin == original.trace_origin
        assert again.validation_script == original.validation_script
        # Replays from the loaded copy behave identically.
        a = run_pdfd(visited_places_hierarchy(), original)
        b = run_pdfd(visited_places_hierarchy(), again)
        assert a.attempts == b.attempts
        assert a.trace.rules() == b.trace.rules()

    def test_all_origin_kinds(self):
        for strat in (
            TraceOriginStrategy.fixed(3),
            TraceOriginStrategy.scripted_map({4: 2, 5: 1}),
            TraceOriginStrategy.dependency_min(),
        ):
            sc = Scenario(r_max=7, trace_origin=strat, implicated_nodes={3, 9})
            again = load_scenario(dump_scenario(sc))
            assert again.trace_origin.kind is strat.kind
            assert again.trace_origin == strat
            assert again.implicated_nodes == {3, 9}

    def test_cdd_fields_round_trip(self):
        from treeflow.scenario import CddScript

        sc = Scenario(
            cdd=CddScript(
                test_failures={1: 2},
                feedback_cycles={2: 1},
                refine_iterations={1: 3},
                increment_feedback={1: 2},
            ),
            increments=[[1, 2], [3]],
            dad_missing_deps={4: ["x", "y"]},
        )
        again = load_scenario(dump_scenario(sc))
        assert again.cdd == sc.cdd
        assert again.increments == sc.increments
        assert again.dad_missing_deps == sc.dad_missing_deps

    def test_load_from_json_text(self):
        sc = load_scenario('{"r_max": 9, "trace_origin": {"strategy": "fixed", "level": 2}}')
        assert sc.r_max == 9
        assert sc.trace_origin.kind is OriginKind.FIXED


class TestTraceRoundTrip:
    def test_jsonl_preserves_measures_and_payloads(self, tmp_path):
        result = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
        path = tmp_path / "trace.jsonl"
        result.trace.write_jsonl(path)
        again = Trace.read_jsonl(path, methodology="pdfd")
        assert again.events == result.trace.events
        from treeflow.verify import DescentFold, run_all_checks

        # The monitor's measure after each event is the same on both sides.
        folds = DescentFold("pdfd"), DescentFold("pdfd")
        for a, b in zip(result.trace, again):
            folds[0].feed([a])
            folds[1].feed([b])
            assert folds[0].measure == folds[1].measure is not None
        assert all(v.ok for v in run_all_checks(again))


class TestOutputFiles:
    """``jsondoc.write_text`` overwrites a file in place: exactly the new
    bytes, the same inode, mode, links and symlink, and no ``O_TRUNC``."""

    @pytest.fixture()
    def trace(self):
        return run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario()).trace

    def test_a_shorter_trace_leaves_exactly_its_bytes(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(trace.to_jsonl() * 3)
        short = Trace("pdfd", trace.events[:2])
        short.write_jsonl(path)
        assert path.read_bytes() == short.to_jsonl().encode()
        assert len(Trace.read_jsonl(path)) == 2

    def test_an_empty_trace_leaves_an_empty_file(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        Trace("pdfd").write_jsonl(path)
        assert path.read_bytes() == b""

    def test_a_shorter_snapshot_leaves_exactly_its_bytes(self, tmp_path):
        store = geo_store()
        path, fresh = tmp_path / "snap.json", tmp_path / "fresh.json"
        store.save_snapshot(path)
        longer = path.stat().st_size
        store.reset_subtree(1, GEO["united_states"])
        store.save_snapshot(path)
        store.save_snapshot(fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert path.stat().st_size < longer

    def test_inode_mode_and_hard_links_are_kept(self, trace, tmp_path):
        path, link = tmp_path / "trace.jsonl", tmp_path / "link.jsonl"
        path.write_text("x" * 100_000)
        path.chmod(0o640)
        os.link(path, link)
        before = path.stat()
        trace.write_jsonl(path)
        after = path.stat()
        assert (after.st_ino, after.st_mode, after.st_nlink) == (
            before.st_ino, before.st_mode, 2)
        assert stat.S_IMODE(after.st_mode) == 0o640
        assert link.read_bytes() == path.read_bytes() == trace.to_jsonl().encode()

    def test_writing_through_a_symlink_updates_the_target(self, trace, tmp_path):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_text("old\n" * 1000)
        link.symlink_to(target)
        trace.write_jsonl(link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == trace.to_jsonl().encode()

    def test_a_new_file_gets_the_default_mode(self, tmp_path):
        path = tmp_path / "new.txt"
        write_text(path, "caf\u00e9\n")
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert path.read_bytes() == "caf\u00e9\n".encode("utf-8")

    def test_a_fifo_is_written_and_not_truncated(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_text(fifo, "line\n")
            assert os.read(reader, 100) == b"line\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_no_output_file_is_opened_with_o_trunc(self, trace, monkeypatch, tmp_path):
        """Truncating an ext4 file that holds data, then writing it again,
        flushes the data on close: the writer never asks for O_TRUNC."""
        opened = []
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        path, snap = tmp_path / "trace.jsonl", tmp_path / "snap.json"
        for _ in range(2):
            trace.write_jsonl(path)
            geo_store().save_snapshot(snap)
        writes = [(p, flags) for p, flags in opened if flags & os.O_WRONLY]
        assert [p for p, _ in writes] == [str(path), str(snap)] * 2
        assert not any(flags & os.O_TRUNC for _, flags in writes)
