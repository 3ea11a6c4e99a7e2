"""Monitor sensitivity: how many one-field forgeries of a genuine trace get
past every monitor.

The traces are runs over the GEO fixture, with the pbfd-mvp scenario for
the two hybrid machines.  A mutant changes one top-level payload field of
one event:

* an integer by -1 or +1;
* a list of integers by dropping its last item, or by appending one more
  than its largest item;
* a status map, the first event's ``statuses`` or a later event's
  ``status_changes``, by setting one entry to each other status, or by
  dropping one ``status_changes`` entry.

A mutant survives when every ``run_all_checks`` verdict and the
``check_csp_conformance`` verdict pass.  ``PINNED`` holds, per (machine,
field), the number of mutants, exactly, and the number of survivors, as a
ceiling: a change may lower a survivor count, never raise it.  A field that
no longer yields mutants loses its row.  An equivalent mutant, a forged
trace that is the genuine trace of other inputs, cannot be killed: the
hybrid ``r_max`` survivors are checked to be such.
"""

from collections import Counter

import pytest

from treeflow.basic_machines import Dag, run_bfd, run_cdd, run_dad, run_dfd
from treeflow.csp import check_csp_conformance
from treeflow.fixtures import geo_hierarchy, pbfd_mvp_scenario
from treeflow.hybrid_machines import run_pbfd, run_pdfd
from treeflow.trace import Trace
from treeflow.verify import run_all_checks


def _trace(machine: str) -> Trace:
    h = geo_hierarchy()
    if machine == "pdfd":
        return run_pdfd(h, pbfd_mvp_scenario()).trace
    if machine == "pbfd":
        return run_pbfd(h, pbfd_mvp_scenario()).trace
    if machine == "dad":
        return run_dad(Dag.from_hierarchy(h))
    if machine == "cdd":
        return run_cdd(sorted(h.nodes), 3)
    return run_dfd(h) if machine == "dfd" else run_bfd(h)


def _status_forgeries(field: str, value: dict):
    for node, status in value.items():
        if field == "status_changes":
            yield {n: s for n, s in value.items() if n != node}
        for other in sorted({0, 1, 2} - {status}):
            yield dict(value, **{node: other})


def _mutants(trace: Trace):
    """(field, mutated trace) for every mutant of ``trace``, in event order."""
    for idx, ev in enumerate(trace.events):
        for field, value in ev.payload.items():
            if value.__class__ is int:
                forged = [value - 1, value + 1]
            elif value.__class__ is list and all(v.__class__ is int for v in value):
                forged = ([value[:-1]] if value else []) + [value + [max(value, default=0) + 1]]
            elif field in ("statuses", "status_changes"):
                forged = list(_status_forgeries(field, value))
            else:
                continue
            for v in forged:
                events = list(trace.events)
                events[idx] = ev._replace(payload=dict(ev.payload, **{field: v}))
                yield field, Trace(trace.methodology, events)


def _survives(trace: Trace) -> bool:
    return all(v.ok for v in run_all_checks(trace) + [check_csp_conformance(trace)])


# machine -> field -> (mutants, surviving mutants at most)
PINNED: dict[str, dict[str, tuple[int, int]]] = {
    "bfd": {
        "enqueued": (55, 55), "level": (106, 80), "levels": (2, 0), "max_level": (2, 2),
        "node": (80, 80), "root": (2, 2), "validated": (14, 14),
    },
    "cdd": {
        "component": (80, 80), "components": (4, 4), "increment": (82, 82), "increments": (4, 4),
    },
    "dad": {
        "children_enqueued": (55, 55), "deps": (79, 79), "node": (160, 0), "nodes": (2, 2),
        "processed": (2, 2), "root": (2, 2),
    },
    "dfd": {
        "backtrack_point": (100, 100), "node": (80, 80), "nodes": (2, 2), "processed": (2, 2),
        "pushed": (30, 30), "root": (2, 2), "sibling": (48, 48), "subtree_root": (58, 58),
        "to": (28, 28),
    },
    "pbfd": {
        "L": (2, 0), "attempt": (30, 0), "failing": (16, 1), "level": (56, 0), "r_max": (2, 2),
        "range_end": (8, 0), "status_changes": (240, 0), "statuses": (80, 0),
        "trace_format": (2, 1),
    },
    "pdfd": {
        "L": (2, 0), "attempt": (40, 0), "failing": (20, 0), "level": (40, 0),
        "r_max": (2, 2), "status_changes": (240, 0), "statuses": (80, 0),
        "trace_format": (2, 1),
    },
}


@pytest.mark.parametrize("machine", sorted(PINNED))
def test_survivors_stay_within_their_pins(machine):
    mutants: Counter[str] = Counter()
    survivors: Counter[str] = Counter()
    for field, trace in _mutants(_trace(machine)):
        mutants[field] += 1
        survivors[field] += _survives(trace)
    pinned = PINNED[machine]
    assert dict(mutants) == {f: p[0] for f, p in pinned.items()}
    raised = {f: (survivors[f], p[1]) for f, p in pinned.items() if survivors[f] > p[1]}
    assert raised == {}, "survivors above their pins (observed, pinned)"


@pytest.mark.parametrize("machine", ["pdfd", "pbfd"])
def test_budget_survivors_are_the_engines_own_traces(machine):
    """The hybrid ``r_max`` survivors are equivalent mutants: a budget one
    lower or higher that no level reaches is the run the engine writes with
    that budget, event for event."""
    runner = run_pdfd if machine == "pdfd" else run_pbfd
    budgets = [mutant for field, mutant in _mutants(_trace(machine)) if field == "r_max"]
    assert len(budgets) == 2
    for mutant in budgets:
        sc = pbfd_mvp_scenario()
        sc.r_max = mutant.events[0].payload["r_max"]
        assert runner(geo_hierarchy(), sc).trace.events == mutant.events


def test_every_machine_is_pinned():
    assert sorted(PINNED) == ["bfd", "cdd", "dad", "dfd", "pbfd", "pdfd"]


def test_the_genuine_traces_pass():
    for machine in PINNED:
        assert _survives(_trace(machine))
