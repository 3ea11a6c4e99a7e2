"""Stateful store-vs-oracle test (Claessen & Hughes, ICFP 2000).

Hypothesis draws sequences of selects (orphan refusals included),
deselects, subtree resets, lookups and snapshot round trips over three
subjects on the GEO hierarchy, whose columns are 32-bit, 64-bit and
``var:n`` wide.  Selects, deselects and resets each draw from any node and
from the nodes around the subject's selection, so chains grow deep and
resets clear whole columns.  A round trip saves the store under test and
replaces it with the store ``load_snapshot`` reads back.  After every step:

- each subject's ``selection_set`` equals the normalized oracle's, and
  ``lookup`` answers True for exactly the nodes whose oracle row is live;
- ``report_paths`` and the snapshot bytes equal those of a twin store that
  gets the same operations and is never reloaded.

Only public behaviour is compared, never the layout of ``records``.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from treeflow.fixtures import geo_hierarchy
from treeflow.oracle import NormalizedStore
from treeflow.tle import MIN_SELECTABLE_LEVEL, OrphanSelectionError, TleStore

GEO_TREE = geo_hierarchy()
ALL_NODES = sorted(GEO_TREE.nodes)
SELECTABLE = [n for n in ALL_NODES if GEO_TREE.node(n).level >= MIN_SELECTABLE_LEVEL]
TOP = [n.id for n in GEO_TREE.level(MIN_SELECTABLE_LEVEL)]
SUBJECTS = (1, 2, 3)

subjects = st.sampled_from(SUBJECTS)


def _refused(select, subject, node):
    """Whether ``select(subject, node)`` refuses the node as an orphan."""
    try:
        select(subject, node)
    except OrphanSelectionError:
        return True
    return False


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = TleStore(GEO_TREE)
        self.twin = TleStore(GEO_TREE)
        self.oracle = NormalizedStore(GEO_TREE)
        self.dir = Path(tempfile.mkdtemp(prefix="treeflow-stateful-"))

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _snapshot(self, store, name):
        path = self.dir / name
        store.save_snapshot(path)
        return path

    def _select(self, subject, node):
        outcomes = [_refused(select, subject, node) for select in (
            lambda s, n: self.store.update(s, n, True),
            lambda s, n: self.twin.update(s, n, True),
            self.oracle.select)]
        assert len(set(outcomes)) == 1, (subject, node, outcomes)

    @rule(subject=subjects, node=st.sampled_from(SELECTABLE))
    def select_any(self, subject, node):
        """Any selectable node: deep ones are mostly orphans and refused."""
        self._select(subject, node)

    @rule(subject=subjects, data=st.data())
    def select_below(self, subject, data):
        """A top-level node or a child of a selected node, so chains grow deep."""
        live = self.oracle.selection_set(subject)
        candidates = sorted(set(TOP).union(
            c.id for n in live for c in GEO_TREE.children(n)))
        self._select(subject, data.draw(st.sampled_from(candidates)))

    def _deselect(self, subject, node):
        self.store.update(subject, node, False)
        self.twin.update(subject, node, False)
        self.oracle.deselect(subject, node)

    @rule(subject=subjects, node=st.sampled_from(SELECTABLE))
    def deselect_any(self, subject, node):
        """Any selectable node: most are not selected."""
        self._deselect(subject, node)

    @rule(subject=subjects, data=st.data())
    def deselect_selected(self, subject, data):
        """A selected node, whose siblings' bits share its cell."""
        live = sorted(self.oracle.selection_set(subject)) or TOP
        self._deselect(subject, data.draw(st.sampled_from(live)))

    def _reset(self, subject, node):
        self.store.reset_subtree(subject, node)
        self.twin.reset_subtree(subject, node)
        self.oracle.reset_subtree(subject, node)

    @rule(subject=subjects, node=st.sampled_from(ALL_NODES))
    def reset_any(self, subject, node):
        """Any node, structural ones included."""
        self._reset(subject, node)

    @rule(subject=subjects, data=st.data())
    def reset_above_selected(self, subject, data):
        """The parent of a selected node, so the reset clears a whole column."""
        parents = sorted({GEO_TREE.node(n).parent_id
                          for n in self.oracle.selection_set(subject)}) or ALL_NODES
        self._reset(subject, data.draw(st.sampled_from(parents)))

    def _live(self, subject, node):
        row = self.oracle.row_for(subject, node)
        return row is not None and not row.is_deleted

    @rule(subject=subjects, node=st.sampled_from(SELECTABLE))
    def lookup(self, subject, node):
        """A node's own bit, set exactly when the oracle's row is live."""
        live = self._live(subject, node)
        assert self.store.lookup(subject, node) is live
        assert self.twin.lookup(subject, node) is live

    @rule()
    def reload(self):
        self.store = TleStore.load_snapshot(GEO_TREE, self._snapshot(self.store, "saved.json"))

    @invariant()
    def agrees(self):
        for subject in SUBJECTS:
            assert self.store.selection_set(subject) == self.oracle.selection_set(subject)
            assert self.store.report_paths(subject) == self.twin.report_paths(subject)
            bits = [n for n in SELECTABLE if self.store.lookup(subject, n)]
            assert bits == [n for n in SELECTABLE if self._live(subject, n)]
        ours = self._snapshot(self.store, "ours.json").read_bytes()
        assert ours == self._snapshot(self.twin, "twin.json").read_bytes()


StoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
TestStoreMachine = StoreMachine.TestCase
