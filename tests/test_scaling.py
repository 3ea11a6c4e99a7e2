"""Complexity guards that count Python calls instead of timing.

Each guard runs one layer at size n and 2n on an adversarial shape and
compares cProfile's total call counts, or the bytes a trace takes, which are
exact and the same on every host.  A linear layer may at most double its calls, with a margin for fixed
costs (ratio <= 2.2); a layer that must not depend on the size stays at
ratio ~1.  A quadratic cost shows as a ratio near 4.  The loader's calls
into the package itself must not grow with the rows at all.

Bounded run enumeration is guarded by counting its work directly: each
distinct event is emitted once and fed to each monitor once.

Memory guards compare the bytes ``tracemalloc`` traces, never a time: a
read-back trace against the emitted one, and a layer's peak at two sizes.
"""

import cProfile
import gc
import pstats
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from test_verification import replay_runs
import treeflow
from treeflow.basic_machines import Dag, dfd_visit_order, run_bfd, run_cdd, run_dad, run_dfd
from treeflow.csp import check_csp_conformance
from treeflow.fixtures import (
    pdfd_mvp_scenario,
    perfect_tree,
    uniform_hierarchy,
    visited_places_hierarchy,
)
from treeflow.hierarchy import load_hierarchy
from treeflow.hybrid_machines import run_pbfd, run_pdfd
from treeflow.scenario import CddScript, Scenario, TraceOriginStrategy
from treeflow.tle import MIN_SELECTABLE_LEVEL, TleStore
from treeflow.trace import Trace
from treeflow.verify import (
    RULE_TABLES,
    DescentFold,
    WellFormedFold,
    _field,
    check_bounded_refinement,
    check_deadlock_freeness,
    check_measure_descent,
    run_all_checks,
)

LINEAR = 2.2
PACKAGE = Path(treeflow.__file__).parent


def profiled(fn, *args) -> pstats.Stats:
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn(*args)
    finally:
        profile.disable()
    return pstats.Stats(profile)


def calls(fn, *args) -> int:
    """Total Python and builtin calls made by ``fn(*args)``."""
    return profiled(fn, *args).total_calls


def _package_calls(stats: pstats.Stats, function: str | None = None) -> int:
    return sum(nc for (filename, _, name), (_, nc, *_) in stats.stats.items()
               if Path(filename).parent == PACKAGE and function in (None, name))


def package_calls(fn, *args, function: str | None = None) -> int:
    """Calls made by ``fn(*args)`` to functions defined in the treeflow
    package, or only to the one named ``function``; builtins and generated
    code are not counted."""
    return _package_calls(profiled(fn, *args), function)


def ratio(build, layer, n: int) -> float:
    """Calls of ``layer`` on ``build(2n)`` over its calls on ``build(n)``;
    the inputs are built outside the counted region."""
    small, large = build(n), build(2 * n)
    return calls(layer, large) / calls(layer, small)


def star(n: int) -> Dag:
    """A root that depends on n leaves."""
    return Dag(node_names={i: str(i) for i in range(n + 1)},
               deps={0: set(range(1, n + 1))}, root_id=0)


def chain(n: int) -> Dag:
    """Node i depends on node i+1, and the root is node 1."""
    return Dag(node_names={i: str(i) for i in range(1, n + 1)},
               deps={i: {i + 1} if i < n else set() for i in range(1, n + 1)},
               root_id=1)


def _row(id, parent, ci, level, width="int32"):
    return {"id": id, "name": f"n{id}", "name_type_id": None, "width_class": width,
            "parent_id": parent, "child_index": ci, "level": level}


def deep_rows(n: int) -> list[dict]:
    """A path of n nodes, one per level."""
    return [_row(i, i - 1 if i > 1 else None, 0, i) for i in range(1, n + 1)]


def wide_rows(n: int) -> list[dict]:
    """A root with n children, so its width is ``var:n``."""
    return [_row(0, None, 0, 1, width=f"var:{n}")] + [
        _row(i, 0, i - 1, 2) for i in range(1, n + 1)
    ]


def dfd_trace(levels: int) -> Trace:
    return run_dfd(perfect_tree(2, levels))


def cdd_input(n: int, size: int) -> tuple[list[int], int, Scenario]:
    """n components in increments of ``size``, with scripted test failures,
    feedback cycles, multi-iteration refinements and increment feedback."""
    components = list(range(1, n + 1))
    increments = [components[i:i + size] for i in range(0, n, size)]
    script = CddScript(
        test_failures={c: 1 for c in components[::7]},
        feedback_cycles={c: 1 for c in components[3::7]},
        refine_iterations={c: 2 for c in components[::5]},
        increment_feedback={k: increments[k - 1][0] for k in range(1, len(increments) + 1, 3)},
    )
    return components, 3, Scenario(r_max=3, cdd=script, increments=increments)


def dad_trace(levels: int) -> Trace:
    """dad on a perfect binary tree, with a scripted missing dependency."""
    return run_dad(Dag.from_hierarchy(perfect_tree(2, levels)),
                   Scenario(dad_missing_deps={1: ["ext"], 4: ["ext"]}))


def bfd_trace(levels: int) -> Trace:
    return run_bfd(perfect_tree(2, levels))


def cdd_trace(levels: int) -> Trace:
    """cdd over as many components as perfect_tree(2, levels) has nodes."""
    return run_cdd(*cdd_input(2 ** (levels + 1) - 1, 10))


class CountedId(int):
    """A node id whose equality test is a Python call, so cProfile counts
    each comparison a list scan makes; a set lookup makes none."""

    __slots__ = ()

    def __eq__(self, other):
        return int(self) == int(other)

    __hash__ = int.__hash__


def dfd_trace_with_counted_ids(levels: int) -> Trace:
    return Trace("dfd", [
        ev._replace(payload={k: CountedId(v) if k in ("root", "node") else v
                             for k, v in ev.payload.items()})
        for ev in dfd_trace(levels)])


def pdfd_with_level_count(L: int) -> Trace:
    """The pdfd-mvp trace with ``L`` forged on its first event; the
    monitors' own measure descends through the whole trace."""
    events = list(run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario()).trace)
    events[0] = events[0]._replace(payload={**events[0].payload, "L": L})
    return Trace("pdfd", events)


def pdfd_with_repeated_episodes(levels: int) -> Trace:
    """pdfd on a path of ``levels`` nodes whose last level fails its first
    three validations: each failure opens a refinement episode from level 1,
    which walks the same labels again."""
    h = load_hierarchy(deep_rows(levels))
    sc = Scenario(r_max=4, trace_origin=TraceOriginStrategy.fixed(1),
                  validation_script={("level", levels, a): {levels} for a in (1, 2, 3)})
    return run_pdfd(h, sc).trace


def measure_monitors(trace: Trace) -> None:
    check_measure_descent(trace, "pdfd")
    check_bounded_refinement(trace)


class TestLinearLayers:
    @pytest.mark.parametrize("shape", [star, chain])
    def test_run_dad(self, shape):
        assert ratio(shape, run_dad, 500) <= LINEAR

    @pytest.mark.parametrize("shape", [star, chain])
    def test_run_dad_builds_the_dependents_once(self, shape):
        """The acyclicity check and the run share one ``Dag.dependents``."""
        assert package_calls(run_dad, shape(500), function="dependents") == 1

    @pytest.mark.parametrize("rows", [deep_rows, wide_rows])
    @pytest.mark.parametrize("run", [run_dfd, run_bfd])
    def test_tree_engines(self, run, rows):
        assert ratio(lambda n: load_hierarchy(rows(n)), run, 500) <= LINEAR

    @pytest.mark.parametrize("rows", [deep_rows, wide_rows])
    def test_run_dfd_walks_the_children_index(self, rows):
        """No ``Hierarchy.children`` list of nodes is built per step: twice
        the nodes make the same calls to it; the ids come from ``child_ids``."""
        small, large = load_hierarchy(rows(500)), load_hierarchy(rows(1000))
        assert (package_calls(run_dfd, large, function="children")
                == package_calls(run_dfd, small, function="children"))

    @pytest.mark.parametrize("size", [1, 10, None], ids=["one_each", "tens", "one_increment"])
    def test_run_cdd(self, size):
        small, large = cdd_input(500, size or 500), cdd_input(1000, size or 1000)
        assert calls(run_cdd, *large) / calls(run_cdd, *small) <= LINEAR

    def test_dfd_visit_order(self):
        """Each processed node is looked up by hash, not scanned for in the order so far."""
        small, large = dfd_trace_with_counted_ids(9), dfd_trace_with_counted_ids(10)
        assert dfd_visit_order(large) == dfd_visit_order(run_dfd(perfect_tree(2, 10)))
        assert calls(dfd_visit_order, large) / calls(dfd_visit_order, small) <= LINEAR

    @pytest.mark.parametrize("rows", [deep_rows, wide_rows])
    def test_load_hierarchy(self, rows):
        assert ratio(rows, load_hierarchy, 1000) <= LINEAR

    def test_load_hierarchy_calls_no_package_function_per_row(self):
        """Each row is read and checked inline: twice the rows make the same
        calls into the package, and only builtin calls grow."""
        small, large = wide_rows(1000), wide_rows(2000)
        assert package_calls(load_hierarchy, large) == package_calls(load_hierarchy, small)

    def test_trace_to_jsonl(self):
        # perfect_tree(2, levels + 1) has twice the nodes, plus one.
        small, large = dfd_trace(9), dfd_trace(10)
        assert calls(Trace.to_jsonl, large) / calls(Trace.to_jsonl, small) <= LINEAR

    def test_trace_to_jsonl_calls_no_package_function_per_event(self):
        """Each record's frame and flat values are written inline: twice the
        events make the same calls into the package."""
        small, large = dfd_trace(9), dfd_trace(10)
        assert package_calls(Trace.to_jsonl, large) == package_calls(Trace.to_jsonl, small)

    @pytest.mark.parametrize("run", [run_pdfd, run_pbfd])
    def test_hybrid_trace_bytes_on_a_path(self, run):
        """No event but the first carries a map over the levels."""
        def size(levels: int) -> int:
            return len(run(load_hierarchy(deep_rows(levels)), Scenario()).trace.to_jsonl())

        assert size(500) / size(250) <= LINEAR

    def test_csp_conformance(self):
        small, large = dfd_trace(9), dfd_trace(10)
        assert calls(check_csp_conformance, large) / calls(check_csp_conformance, small) <= LINEAR

    def test_csp_conformance_makes_no_package_call_per_event(self):
        """A plain-template row's compiled renderer is the row's ``render``,
        called on the event itself, with no wrapper in the package.  Every
        dfd row is plain, so a dfd trace makes fewer calls into the package
        than it has events: only the recognizer's feed, once per batch, and
        its next-state functions, once per process branch that needs one."""
        trace = dfd_trace(10)
        assert package_calls(check_csp_conformance, trace) < len(trace.events)

    def test_csp_parses_target_labels_only_for_rows_that_read_them(self):
        """``{@}`` reads the target label's index through ``parse_label``:
        once per event whose row reads it, and no other row parses a label."""
        trace = pdfd_with_repeated_episodes(20)
        target = _field("@")
        rows = {rule for rule, spec in RULE_TABLES["pdfd"].items() if spec.events and any(
            target in template for templates in spec.events.alternatives for template in templates)}
        reads = sum(ev.rule in rows for ev in trace.events)
        assert rows == {"PD2", "PD2a", "PD4b", "PD6a"}
        assert check_csp_conformance(trace).ok
        assert package_calls(check_csp_conformance, trace, function="parse_label") == reads

    @pytest.mark.parametrize("trace", [dad_trace, bfd_trace, cdd_trace])
    def test_csp_conformance_on_other_basic_machines(self, trace):
        small, large = trace(9), trace(10)
        assert check_csp_conformance(large).ok, check_csp_conformance(large).line()
        assert calls(check_csp_conformance, large) / calls(check_csp_conformance, small) <= LINEAR

    @pytest.mark.parametrize("run", [run_pdfd, run_pbfd])
    def test_hybrid_run_on_a_path(self, run):
        """The measure is not summed over the levels' attempt counters on
        every event: the engine keeps a running count of those spent."""
        small, large = load_hierarchy(deep_rows(250)), load_hierarchy(deep_rows(500))
        assert calls(run, large, Scenario()) / calls(run, small, Scenario()) <= LINEAR

    @pytest.mark.parametrize("levels", [20, 40])
    def test_each_distinct_label_parsed_once_per_trace(self, levels):
        """The monitors of one trace share its label table: ``parse_label``
        runs once per distinct label, not per event or per monitor.  The
        table is the trace's own: a second pass over the same trace parses
        nothing, and a new trace of the same events parses them again."""
        events = pdfd_with_repeated_episodes(levels).events
        labels = {ev.from_state for ev in events} | {ev.to_state for ev in events}
        assert len(labels) < len(events)
        trace = Trace("pdfd", events)
        assert package_calls(run_all_checks, trace, function="parse_label") == len(labels)
        assert package_calls(run_all_checks, trace, function="parse_label") == 0
        assert all(v.ok for v in run_all_checks(trace))
        again = Trace("pdfd", events)
        assert package_calls(run_all_checks, again, function="parse_label") == len(labels)

    def test_trace_read_jsonl(self, tmp_path):
        small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
        dfd_trace(9).write_jsonl(small)
        dfd_trace(10).write_jsonl(large)
        assert calls(Trace.read_jsonl, large) / calls(Trace.read_jsonl, small) <= LINEAR


class TestSizeIndependentLayers:
    def test_measure_with_a_forged_level_count(self):
        """The budget over levels 1..L is not summed level by level: a
        trace claiming L = 2 * 10**4 costs what one claiming 10**4 does."""
        small, large = pdfd_with_level_count(10**4), pdfd_with_level_count(2 * 10**4)
        assert calls(measure_monitors, large) == pytest.approx(
            calls(measure_monitors, small), rel=0.01)

    def test_forged_trace_is_read_past_its_start(self):
        """The guard above counts a pass over the events, not a failure at
        the first one: the monitor's M descends through every event."""
        trace = pdfd_with_level_count(10**4)
        verdict = check_measure_descent(trace, "pdfd")
        assert verdict.ok, verdict.line()
        assert check_bounded_refinement(trace).ok


def wide_tree(n: int):
    """Two structural levels over n parents of four children each."""
    return uniform_hierarchy([1, 1, n, 4 * n])


def path_tree(n: int):
    """A path of n nodes, one per level."""
    return uniform_hierarchy([1] * n)


def store_op_calls(h, subjects: int) -> dict[str, tuple[int, int]]:
    """(calls, package calls) of one lookup, select, deselect and
    selected_children at the last node of ``h``'s deepest level, for
    subject 1 of ``subjects`` that each have the node's ancestors selected."""
    node = h.level(h.max_level)[-1]
    chain = [a.id for a in reversed(h.ancestors(node.id)) if a.level >= MIN_SELECTABLE_LEVEL]
    store = TleStore(h)
    for subject in range(1, subjects + 1):
        for a in chain:
            store.update(subject, a, True)
    ops = {
        "lookup": (store.lookup, 1, node.id),
        "select": (store.update, 1, node.id, True),
        "deselect": (store.update, 1, node.id, False),
        "selected_children": (store.selected_children, 1, node.parent_id),
    }
    out = {}
    for name, (fn, *args) in ops.items():
        stats = profiled(fn, *args)
        out[name] = (stats.total_calls, _package_calls(stats))
    return out


class CountedNodes(dict):
    """A node table that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def fanout_tree(n: int):
    """Two structural levels over three selectable levels of fanout n."""
    return uniform_hierarchy([1, 1, n, n**2, n**3])


def store_query_reads(h) -> dict[str, int]:
    """Node reads of one report_paths and one selection_set for a subject
    with one selected chain, down to the last node of ``h``'s deepest
    level.  A call count cannot show these: the filter over a parent's
    whole children list builds that list in one call."""
    node = h.level(h.max_level)[-1]
    chain = [a.id for a in reversed(h.ancestors(node.id)) if a.level >= MIN_SELECTABLE_LEVEL]
    store = TleStore(h)
    for a in chain + [node.id]:
        store.update(1, a, True)
    h.nodes = counted = CountedNodes(h.nodes)
    out = {}
    for name, fn in (("report_paths", store.report_paths), ("selection_set", store.selection_set)):
        counted.reads = 0
        result = fn(1)
        out[name] = counted.reads
        assert len(result) == (1 if name == "report_paths" else len(chain) + 1)
    return out


def build_reads(h) -> int:
    """Node reads of building a store over ``h``."""
    h.nodes = counted = CountedNodes(h.nodes)
    TleStore(h)
    return counted.reads


class TestStoreOps:
    """One lookup, select, deselect or selected_children makes the same
    calls at n and 2n nodes and at n and 2n subjects, a query over one
    selected chain reads the same nodes at fanout n and 2n, and building
    the store reads the same nodes at n and 2n leaves.
    ``reset_subtree`` is left out: its scan of every record of the store
    makes no call per record, so a call count cannot show how its work
    grows."""

    @pytest.mark.parametrize("shape", [wide_tree, path_tree])
    def test_same_calls_at_n_and_2n_nodes(self, shape):
        assert store_op_calls(shape(64), 8) == store_op_calls(shape(128), 8)

    @pytest.mark.parametrize("shape", [wide_tree, path_tree])
    def test_same_calls_at_n_and_2n_subjects(self, shape):
        assert store_op_calls(shape(64), 8) == store_op_calls(shape(64), 16)

    def test_queries_read_the_same_nodes_at_fanout_n_and_2n(self):
        assert store_query_reads(fanout_tree(8)) == store_query_reads(fanout_tree(16))

    def test_build_reads_the_same_nodes_at_n_and_2n_leaves(self):
        """The schema reads the units and their columns, never the leaves."""
        assert build_reads(uniform_hierarchy([1, 1, 4, 16, 16 * 8])) == build_reads(
            uniform_hierarchy([1, 1, 4, 16, 16 * 16])
        )

    def test_a_select_reads_three_nodes(self):
        """A select under a selected chain reads the node, its parent and
        its grandparent, and adds the parent check's steps to its own."""
        h = fanout_tree(8)
        node = h.level(h.max_level)[-1]
        store = TleStore(h)
        for a in reversed(h.ancestors(node.id)):
            if a.level >= MIN_SELECTABLE_LEVEL:
                store.update(1, a.id, True)
        h.nodes = counted = CountedNodes(h.nodes)
        before = store.counter.steps
        store.update(1, node.id, True)
        assert (counted.reads, store.counter.steps - before) == (3, 6)
        assert store.lookup(1, node.id)


def traced(fn, *args):
    """``fn(*args)``, the bytes its result still holds once it returns, and
    the traced peak above the bytes held before the call."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, current - base, peak - base


class TestMemory:
    def test_read_back_trace_holds_little_more_than_the_emitted_one(self, tmp_path):
        """Equal labels of one read are one object, and no line is copied
        out of the text: a read-back dfd trace, whose payload strings are
        all fresh, stays within 1.6x of the emitted one."""
        h = perfect_tree(3, 7)
        run_dfd(h)  # whatever the tree builds lazily is built outside the count
        emitted, emitted_bytes, _ = traced(run_dfd, h)
        path = tmp_path / "t.jsonl"
        emitted.write_jsonl(path)
        back, back_bytes, _ = traced(Trace.read_jsonl, path, "dfd")
        assert back.events == emitted.events
        assert back_bytes <= 1.6 * emitted_bytes

    def test_csp_conformance_holds_no_rendered_trace(self):
        """The recognizer is fed one batch of rendered trace events at a
        time: three times the events leave the traced peak above the trace
        flat."""
        def peak(levels: int) -> int:
            trace = run_dfd(perfect_tree(3, levels))
            check_csp_conformance(trace, "dfd")  # lazy set-up is done before the count
            verdict, _, above = traced(check_csp_conformance, trace, "dfd")
            assert verdict.ok, verdict.line()
            return above

        assert peak(8) <= 1.5 * peak(7)


def distinct_prefixes(results) -> int:
    """The number of distinct event prefixes over the runs' traces: the
    nodes of the run tree."""
    nodes: dict[tuple[int, str], int] = {}
    for res in results:
        node = 0
        for line in res.trace.to_jsonl().splitlines():
            node = nodes.setdefault((node, line), len(nodes) + 1)
    return len(nodes)


class TestEnumerationWork:
    @pytest.mark.parametrize("tree", [[1, 2, 2], [1, 2, 3, 2]], ids=str)
    @pytest.mark.parametrize("methodology", ["pdfd", "pbfd"])
    def test_each_distinct_event_emitted_and_fed_once(self, monkeypatch, methodology, tree):
        h = uniform_hierarchy(tree)
        base = Scenario(r_max=1, trace_origin=TraceOriginStrategy.fixed(1))
        runs = replay_runs(methodology, h, base)
        expected = distinct_prefixes(runs)
        assert expected < sum(len(r.trace) for r in runs)  # replay re-emits shared prefixes

        counts = Counter()
        emit = Trace.emit

        def counted_emit(self, *args, **kwargs):
            counts["emit"] += 1
            return emit(self, *args, **kwargs)

        monkeypatch.setattr(Trace, "emit", counted_emit)
        for cls in (WellFormedFold, DescentFold):
            def counted_feed(self, events, feed=cls.feed, key=cls.__name__):
                counts[key] += len(events)
                return feed(self, events)

            monkeypatch.setattr(cls, "feed", counted_feed)
        verdict = check_deadlock_freeness(methodology, h, r_max=1)
        assert verdict.detail == f"{len(runs)} enumerated runs, all reached T or S5"
        assert counts == {"emit": expected, "WellFormedFold": expected, "DescentFold": expected}
