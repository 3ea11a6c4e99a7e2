"""The four foundational machines: dependency-ordered DAG processing (DA
rules), depth-first traversal with backtrack validation (DF rules),
level-synchronized breadth-first processing (BF rules), and bounded
iterative refinement over component increments (CD rules).

Each run returns a Trace whose rule ids come straight from the machine's
transition table; payloads carry the condition snapshot that fired the rule,
in lists of the run's own, never an input's.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .hierarchy import Hierarchy, HierarchyError, load_hierarchy
from .jsondoc import JSONDocumentError, decode_json, read_text
from .scenario import Scenario
from .trace import Trace


class MachineError(RuntimeError):
    pass


class AcyclicityViolationError(MachineError):
    """The input graph of a dad run has a cycle."""


class GraphError(ValueError):
    """A dad graph document that is not valid JSON or does not fit the schema."""


class LoopUnboundedError(MachineError):
    """A component exceeded its refinement iteration cap."""

    def __init__(self, component: int, attempts: int, trace: Trace):
        super().__init__(f"component {component} still failing after {attempts} refinements")
        self.component = component
        self.attempts = attempts
        self.trace = trace


# -- DAG input ---------------------------------------------------------------


@dataclass
class Dag:
    """Directed acyclic dependency graph: deps[v] must complete before v."""

    node_names: dict[int, str]
    deps: dict[int, set[int]]
    root_id: int
    _next_id: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._next_id = max(self.node_names) + 1 if self.node_names else 1
        for v in self.node_names:
            self.deps.setdefault(v, set())

    @classmethod
    def from_rows(cls, rows: Any, root: Any) -> "Dag":
        """A graph from ``{"id", "name"?, "deps"?}`` rows and a root id.
        Raises GraphError naming the row and the field
        (``nodes[0].deps: unknown node 2``), and on a cycle."""
        if not isinstance(rows, list):
            raise GraphError(f"nodes: must be a list, got {type(rows).__name__}")
        names: dict[int, str] = {}
        deps: dict[int, set[int]] = {}
        for index, row in enumerate(rows):
            if not isinstance(row, dict):
                raise GraphError(f"nodes[{index}]: must be an object, got {type(row).__name__}")
            if "id" not in row:
                raise GraphError(f"nodes[{index}]: missing field 'id'")
            v, name, node_deps = row["id"], row.get("name", str(row["id"])), row.get("deps", [])
            # bool is a subclass of int, so the exact class is tested.
            if v.__class__ is not int:
                raise GraphError(f"nodes[{index}].id: must be an integer, got {v!r}")
            if v in names:
                raise GraphError(f"nodes[{index}].id: duplicate node id {v}")
            if name.__class__ is not str:
                raise GraphError(f"nodes[{index}].name: must be a string, got {name!r}")
            if node_deps.__class__ is not list or any(u.__class__ is not int for u in node_deps):
                raise GraphError(
                    f"nodes[{index}].deps: must be a list of node ids, got {node_deps!r}"
                )
            names[v], deps[v] = name, set(node_deps)
        for index, node_deps in enumerate(deps.values()):
            unknown = sorted(node_deps - names.keys())
            if unknown:
                raise GraphError(f"nodes[{index}].deps: unknown node {unknown[0]}")
        if root.__class__ is not int or root not in names:
            raise GraphError(f"root: unknown node {root!r}")
        dag = cls(node_names=names, deps=deps, root_id=root)
        if not dag.is_acyclic():
            raise GraphError("nodes: the dependencies form a cycle")
        return dag

    @classmethod
    def from_hierarchy(cls, h: Hierarchy) -> "Dag":
        nodes = h.nodes.items()
        names = {v: n.name for v, n in nodes}
        deps = {v: {n.parent_id} for v, n in nodes}
        deps[h.root_id] = set()  # the one node whose parent_id is None
        return cls(node_names=names, deps=deps, root_id=h.root_id)

    def dependents(self) -> dict[int, list[int]]:
        """Reverse of ``deps``: for each node, the ascending ids of the nodes
        that depend on it, as ``deps`` stands now."""
        out: dict[int, list[int]] = {v: [] for v in self.deps}
        for v in sorted(self.deps):
            for u in self.deps[v]:
                out.setdefault(u, []).append(v)
        return out

    def add_dependency_node(self, name: str, dependent: int) -> int:
        """Materialize a fresh node that ``dependent`` depends on."""
        new_id = self._next_id
        self._next_id += 1
        self.node_names[new_id] = name
        self.deps[new_id] = set()
        self.deps[dependent].add(new_id)
        return new_id

    def is_acyclic(self) -> bool:
        return _drains({v: len(d) for v, d in self.deps.items()}, self.dependents())


def _drains(waiting: dict[int, int], dependents: dict[int, list[int]]) -> bool:
    """Kahn's algorithm, without recursion, so a long chain is fine: drains
    ``waiting`` in place, and every node drains exactly when there is no cycle."""
    drained = [v for v, n in waiting.items() if not n]
    for v in drained:  # grows while it is walked
        for w in dependents[v]:
            left = waiting[w] = waiting[w] - 1
            if not left:
                drained.append(w)
    return len(drained) == len(waiting)


def load_dag(path: str | Path) -> Dag:
    """The dad input at ``path``: a graph document
    ``{"nodes": [{"id": 1, "name": "a", "deps": [2]}, ...], "root": 1}``, or
    else a hierarchy document, in which each node depends on its parent.
    The file is read once.  Graph errors name the file, the node index and
    the field (``g.json: nodes[0].deps: unknown node 2``)."""
    try:
        doc = decode_json(read_text(path))
    except JSONDocumentError as exc:
        raise GraphError(f"{path}: {exc}") from None
    if not (isinstance(doc, dict) and "nodes" in doc):
        try:  # a decoded JSON string is no rows: load_hierarchy would read it as text
            return Dag.from_hierarchy(load_hierarchy(() if isinstance(doc, str) else doc))
        except HierarchyError as exc:
            raise HierarchyError(f"{Path(path)}: {exc}") from None
    try:
        if "root" not in doc:
            raise GraphError("missing field 'root'")
        return Dag.from_rows(doc["nodes"], doc["root"])
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None


def run_dad(dag: Dag, scenario: Scenario | None = None) -> Trace:
    """Dependency-ordered processing with scripted graph extension.

    Nodes become ready once all dependencies are processed; a scripted
    missing dependency triggers one extend/enqueue cycle (DA4/DA5) before the
    node is re-queued.  Ends with DA6 when every node is processed.

    ``waiting[v]`` counts v's unprocessed dependencies: DA3 of a node lowers
    it for each dependent and an extension raises it, so telling whether a
    node is ready costs O(1), not a scan of its dependencies.  ``dependents``
    is built once per run: the cycle check drains it before the first event,
    and each scripted extension, a node with no dependencies that cannot
    close a cycle, keeps it current.
    """
    scenario = scenario or Scenario()
    deps = dag.deps
    dependents = dag.dependents()
    waiting = {v: len(d) for v, d in deps.items()}
    if not _drains(dict(waiting), dependents):
        raise AcyclicityViolationError("input graph has a cycle")
    pending_missing = {v: list(names) for v, names in scenario.dad_missing_deps.items()}
    processed: set[int] = set()
    queued: set[int] = {dag.root_id}
    queue: deque[int] = deque([dag.root_id])
    trace = Trace("dad")
    trace.emit("DA1", "S0", "S1", {"root": dag.root_id, "nodes": len(dag.node_names)})

    while queue:
        v = queue.popleft()
        queued.discard(v)
        d = deps[v]
        d = [*d] if len(d) < 2 else sorted(d)  # a tree node has one dependency or none
        trace.emit("DA2", "S1", "S2", {"node": v, "deps": d})
        if pending_missing.get(v):
            name = pending_missing[v].pop(0)
            new_id = dag.add_dependency_node(name, v)
            dependents[new_id] = [v]
            waiting[new_id] = 0
            waiting[v] += 1
            trace.emit("DA4", "S2", "S3", {"node": v, "new_node": new_id, "name": name})
            trace.emit("DA5", "S3", "S1", {"enqueued": [new_id, v]})
            queue.extend((new_id, v))  # the new node, and v, which left the queue above
            queued.update((new_id, v))
            continue
        if waiting[v]:
            # Unprocessed in-graph dependencies: schedule those not yet
            # queued.  v itself waits for DA3 of its last dependency, so a
            # chain costs a few events per node, not a re-trace per link left.
            missing = sorted(u for u in deps[v] if u not in processed)
            enqueued = [u for u in missing if u not in queued]
            trace.emit("DA4", "S2", "S3", {"node": v, "unresolved": missing})
            trace.emit("DA5", "S3", "S1", {"enqueued": enqueued})
            queue.extend(enqueued)
            queued.update(enqueued)
            continue
        processed.add(v)
        enq = []
        for c in dependents[v]:
            left = waiting[c] = waiting[c] - 1
            if not left and c not in queued:
                enq.append(c)
        trace.emit("DA3", "S2", "S1", {"node": v, "children_enqueued": enq})
        if enq:
            queue.extend(enq)
            queued.update(enq)

    if len(processed) != len(dag.node_names):
        raise MachineError(
            f"queue drained with {len(dag.node_names) - len(processed)} nodes unprocessed"
        )
    trace.emit("DA6", "S1", "T", {"processed": len(processed)})
    return trace


def run_dfd(h: Hierarchy) -> Trace:
    """Depth-first traversal: pre-order processing, sibling exploration via
    backtrack points, one subtree validation per closed backtrack point.

    The walk reads the hierarchy's children index through ``child_ids``: a
    node pushed by DF2 gets one cursor over its children, and each later
    visit to it as a backtrack point resumes that cursor.  Children are only
    ever added to ``processed``, so the ones a cursor has passed stay done."""
    nodes, child_ids = h.nodes, h.child_ids
    processed: set[int] = set()
    cursors: dict[int, Iterator[int]] = {}
    trace = Trace("dfd")
    trace.emit("DF1", "S0", "S1", {"root": h.root_id, "nodes": len(h)})

    current: int | None = h.root_id
    while current is not None:
        node = current
        processed.add(node)
        kids = child_ids(node)
        if kids:
            trace.emit("DF2", "S1", "S1", {"node": node, "pushed": kids[:]})
            cursors[node] = iter(kids)
            current = kids[0]
            continue
        # Leaf: start backtracking from the parent (or the node itself at root).
        b = nodes[node].parent_id
        if b is None:
            b = node
        trace.emit("DF3", "S1", "S2", {"node": node, "backtrack_point": b})
        while True:
            for current in cursors.get(b, ()):
                if current not in processed:
                    break
            else:
                current = None
            if current is not None:
                trace.emit("DF4", "S2", "S1", {"backtrack_point": b, "sibling": current})
                break
            trace.emit("DF5", "S2", "S3", {"subtree_root": b})
            parent = nodes[b].parent_id
            if parent is None:
                trace.emit(
                    "DF7", "S3", "T", {"processed": len(processed), "backtrack_point": b}
                )
                break
            trace.emit("DF6", "S3", "S2", {"subtree_root": b, "to": parent})
            b = parent
    return trace


def dfd_visit_order(trace: Trace) -> list[int]:
    """Processing order recovered from a depth-first trace: the DF1 root,
    then each node at its first DF2 or DF3; a dict keeps each node once."""
    return list({ev.payload["root"] if ev.rule == "DF1" else ev.payload["node"]: None
                 for ev in trace if ev.rule in ("DF1", "DF2", "DF3")})


def run_bfd(h: Hierarchy) -> Trace:
    """Level-synchronized breadth-first processing: every node of level k is
    processed (BF2) and the level validated (BF3) before level k+1 starts."""
    trace = Trace("bfd")
    max_level = h.max_level
    trace.emit("BF1", "S0", "S1", {"root": h.root_id, "max_level": max_level})
    for k in range(1, max_level + 1):
        nodes = [n.id for n in h.level(k)]
        for v in nodes:
            children = list(h.child_ids(v))
            trace.emit("BF2", "S1", "S1", {"node": v, "level": k, "enqueued": children})
        trace.emit("BF3", "S1", "S2", {"level": k, "validated": sorted(nodes)})
        if k < max_level:
            trace.emit("BF4", "S2", "S1", {"level": k + 1})
        else:
            trace.emit("BF5", "S2", "T", {"levels": max_level})
    return trace


def run_cdd(components: list[int], m_cap: int, scenario: Scenario | None = None) -> Trace:
    """Incremental development with bounded refinement loops.

    The scenario partitions components into increments (default: one
    increment with everything) and scripts test failures, feedback cycles,
    per-component refine iteration counts, and increment-level feedback.
    A component whose refinement needs more than ``m_cap`` iterations raises
    LoopUnboundedError after exactly ``m_cap`` refine iterations.
    """
    scenario = scenario or Scenario()
    trace = Trace("cdd")
    increments = scenario.increments or [list(components)]
    trace.emit(
        "CD1", "S0", "S1", {"components": list(components), "increments": len(increments)}
    )

    remaining_failures = dict(scenario.cdd.test_failures)
    remaining_feedback = dict(scenario.cdd.feedback_cycles)

    def refine(component: int, reason: str) -> None:
        # Refinement converges at the first iteration that reaches ``needed``.
        iteration = max(scenario.cdd.refine_iterations.get(component, 1), 1)
        if iteration > m_cap:
            raise LoopUnboundedError(component, m_cap, trace)
        trace.emit(
            "CD4",
            "S2",
            "S1",
            {"component": component, "refine_iterations": iteration, "reason": reason},
        )

    for inc_index, increment in enumerate(increments, start=1):
        for component in increment:
            trace.emit("CD2", "S1", "S1", {"component": component, "increment": inc_index})
            if remaining_failures.get(component, 0) > 0:
                remaining_failures[component] -= 1
                trace.emit("CD3a", "S1", "S2", {"component": component})
                refine(component, "test_failed")
            elif remaining_feedback.get(component, 0) > 0:
                remaining_feedback[component] -= 1
                trace.emit("CD3b", "S1", "S2", {"component": component})
                refine(component, "feedback_cycle")
        trace.emit("CD5", "S1", "S3", {"increment": inc_index, "components": list(increment)})
        flaw = scenario.cdd.increment_feedback.get(inc_index)
        if flaw is not None:
            trace.emit("CD6", "S3", "S2", {"increment": inc_index, "component": flaw})
            refine(flaw, "increment_feedback")
            trace.emit("CD5", "S1", "S3", {"increment": inc_index, "components": list(increment)})
        if inc_index < len(increments):
            # The only table-legal path back to development is a revision
            # cycle: the next increment's requirements arrive as feedback.
            head = increments[inc_index][0]
            trace.emit(
                "CD6",
                "S3",
                "S2",
                {"increment": inc_index, "component": head, "reason": "next_increment"},
            )
            trace.emit("CD4", "S2", "S1", {"component": head, "refine_iterations": 0})
    trace.emit("CD7", "S3", "T", {"increments": len(increments)})
    return trace
