"""Constant-work evidence and storage-ratio benchmarks for the store.

Step counts for single lookups and updates must not grow with hierarchy
size; batch scans must stay linear in stored records with a stable
per-record constant.  The storage table compares allocated mask bits against
the row-per-selection foreign-key model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .fixtures import bench_hierarchy, uniform_hierarchy
from .hierarchy import Hierarchy
from .tle import TleStore

SCALES = ("small", "medium", "large")
PROBES, PROBE_SEED = 64, 7
BATCH_SUBJECTS = (1, 8, 64)
FULL_LEVELS = (1, 1, 32, 32 * 32)  # "full 32x32": 32 parents of 32 children
DENSITIES = (0.5, 0.25)
KEY_BITS = 32


class StepCountError(RuntimeError):
    """A single lookup or update took a number of steps that depends on
    which node it probed, so the constant-work claim does not hold."""


@dataclass
class StepSample:
    scale: str
    nodes: int
    lookup_steps: int
    update_steps: int


@dataclass
class BatchSample:
    subjects: int
    records: int
    steps: int

    @property
    def constant(self) -> float:
        return self.steps / self.records if self.records else 0.0


def _measure_store(h: Hierarchy, scale: str) -> StepSample:
    store = TleStore(h)
    rng = random.Random(PROBE_SEED)
    deepest = h.level(h.max_level)
    subject = 1
    # Select every deepest-level node's ancestor chain top-down.
    chains: list[list[int]] = []
    for leaf in deepest:
        chain = [a.id for a in reversed(h.ancestors(leaf.id)) if a.level >= 3]
        chains.append(chain + [leaf.id])
    for chain in chains:
        for node in chain:
            if not store.lookup(subject, node):
                store.update(subject, node, True)

    targets = [rng.choice(deepest).id for _ in range(PROBES)]
    lookup_counts = set()
    for t in targets:
        before = store.counter.steps
        store.lookup(subject, t)
        lookup_counts.add(store.counter.steps - before)
    update_counts = set()
    for t in targets:
        before = store.counter.steps
        store.update(subject, t, True)
        update_counts.add(store.counter.steps - before)
    if len(lookup_counts) != 1 or len(update_counts) != 1:
        raise StepCountError(
            f"step counts must be probe-independent: lookup {sorted(lookup_counts)}, "
            f"update {sorted(update_counts)} on the {scale} tree"
        )
    return StepSample(
        scale=scale,
        nodes=len(h),
        lookup_steps=lookup_counts.pop(),
        update_steps=update_counts.pop(),
    )


def step_count_table() -> list[StepSample]:
    return [_measure_store(bench_hierarchy(scale), scale) for scale in SCALES]


def batch_scaling_table() -> list[BatchSample]:
    """Batch-scan work per record as the record population grows.

    The schema is fixed, so the per-record constant must not drift."""
    h = uniform_hierarchy([1, 1, 8, 32])
    out = []
    for subjects in BATCH_SUBJECTS:
        store = TleStore(h)
        for s in range(1, subjects + 1):
            for node in h.level(3):
                store.update(s, node.id, True)
            for node in h.level(4):
                store.update(s, node.id, True)
        before = store.counter.steps
        store.batch_query(lambda unit, col, mask: mask != 0)
        steps = store.counter.steps - before
        out.append(BatchSample(subjects=subjects, records=len(store.records), steps=steps))
    return out


@dataclass
class StorageRow:
    label: str
    selected: int
    tle_bits: int
    traditional_bits: int
    ratio: Fraction | None

    @property
    def ratio_text(self) -> str:
        return "n/a" if self.ratio is None else f"{self.ratio} ({float(self.ratio):.6f})"


def full_selection_store() -> TleStore:
    """Every parent fully selected: the C = c-hat configuration."""
    h = uniform_hierarchy(FULL_LEVELS)
    store = TleStore(h)
    for node in h.level(3):
        store.update(1, node.id, True)
    for node in h.level(4):
        store.update(1, node.id, True)
    return store


def storage_table() -> list[StorageRow]:
    rows = []
    full = full_selection_store()
    rep = full.storage_report(KEY_BITS)
    rows.append(StorageRow("full 32x32", rep["selected"], rep["tle_bits"],
                           rep["traditional_bits"], rep["ratio"]))
    rng = random.Random(11)
    for density in DENSITIES:
        h = uniform_hierarchy(FULL_LEVELS)
        store = TleStore(h)
        for node in h.level(3):
            store.update(1, node.id, True)
        for node in h.level(4):
            if rng.random() < density:
                store.update(1, node.id, True)
        rep = store.storage_report(KEY_BITS)
        rows.append(
            StorageRow(
                f"density {density:.2f}", rep["selected"], rep["tle_bits"],
                rep["traditional_bits"], rep["ratio"],
            )
        )
    return rows


def empty_store_row() -> StorageRow:
    h = uniform_hierarchy([1, 1, 2, 4])
    rep = TleStore(h).storage_report(KEY_BITS)
    return StorageRow("empty", rep["selected"], rep["tle_bits"],
                      rep["traditional_bits"], rep["ratio"])


def format_report(
    samples: list[StepSample], rows: list[StorageRow], batches: list[BatchSample]
) -> str:
    lines = ["# step counts (flat across sizes)"]
    lines.append("scale      nodes    lookup  update")
    for s in samples:
        lines.append(f"{s.scale:<10} {s.nodes:<8} {s.lookup_steps:<7} {s.update_steps}")
    lines.append("")
    lines.append("# batch scan (fixed schema, growing record count)")
    lines.append("subjects  records  steps   steps/record")
    for b in batches:
        lines.append(f"{b.subjects:<9} {b.records:<8} {b.steps:<7} {b.constant:.3f}")
    lines.append("")
    lines.append(f"# storage (key bits = {KEY_BITS})")
    lines.append("case           selections  store_bits  rowmodel_bits  ratio")
    for r in rows:
        lines.append(
            f"{r.label:<14} {r.selected:<11} {r.tle_bits:<11} {r.traditional_bits:<14} "
            f"{r.ratio_text}"
        )
    return "\n".join(lines)
