"""Walkthrough: trace monitors catching a forged event.

Every hybrid-machine event carries the progress measure before and after the
step plus the committed statuses: the first event holds the full status map,
each later one only the nodes its step changed (``status_changes``).  The
monitors fold those changes and work from the trace alone.
Run top to bottom:  python3 demos/trace_verification.py
"""

from treeflow.csp import annotate_trace, check_csp_conformance
from treeflow.fixtures import pdfd_mvp_scenario, visited_places_hierarchy
from treeflow.hybrid_machines import run_pdfd
from treeflow.trace import Trace, TraceEvent
from treeflow.verify import run_all_checks

result = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
trace = result.trace

print("== monitors over the genuine trace ==")
for verdict in run_all_checks(trace):
    print(" ", verdict.line())
print(" ", check_csp_conformance(trace).line())

print("\n== measure snapshots around the first backtrack ==")
ev = next(e for e in trace if e.rule == "PD2a")
print(f"rule {ev.rule}: {ev.from_state} -> {ev.to_state}")
print(f"measure {ev.measure_pre} -> {ev.measure_post}  (budget k2 drops by one)")

print("\n== event-level annotation (first ten) ==")
for seq, name in annotate_trace(trace)[:10]:
    print(f"  event {seq}: {name}")

print("\n== status changes of the first finalizing event ==")
ev = next(e for e in trace if 2 in e.payload.get("status_changes", {}).values())
print(f"event {ev.seq} ({ev.rule}): {ev.payload['status_changes']}")

# Forge a demotion: the last event flips one finalized node back to
# unprocessed.  The invariance monitor pinpoints the event.
print("\n== forged status demotion ==")
events = list(trace)
last = events[-1]
victim = next(iter(events[0].payload["statuses"]))  # finalized by the end
events[-1] = TraceEvent(
    seq=last.seq,
    rule=last.rule,
    from_state=last.from_state,
    to_state=last.to_state,
    payload=dict(last.payload, status_changes={victim: 0}),
    measure_pre=last.measure_pre,
    measure_post=last.measure_post,
)
for verdict in run_all_checks(Trace("pdfd", events)):
    print(" ", verdict.line())
