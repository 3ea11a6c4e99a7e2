"""Walkthrough: trace monitors catching a forged event.

A hybrid-machine event is its rule, its two state labels and its payload.
The target label names the phase and level the step enters; the payload
carries the committed statuses: the first event holds the full status map,
each later one only the nodes its step changed (``status_changes``).  The
monitors fold the labels and those changes and work from the trace alone;
the descent monitor computes the progress measure M itself, event by event.
Run top to bottom:  python3 demos/trace_verification.py
"""

from treeflow.csp import annotate_trace, check_csp_conformance
from treeflow.fixtures import pdfd_mvp_scenario, visited_places_hierarchy
from treeflow.hybrid_machines import run_pdfd
from treeflow.trace import Trace
from treeflow.verify import DescentFold, run_all_checks

result = run_pdfd(visited_places_hierarchy(), pdfd_mvp_scenario())
trace = result.trace

print("== monitors over the genuine trace ==")
for verdict in run_all_checks(trace):
    print(" ", verdict.line())
print(" ", check_csp_conformance(trace).line())

print("\n== the descent monitor's measure around the first backtrack ==")
fold = DescentFold("pdfd")
for ev in trace:
    pre = fold.measure
    fold.feed([ev])
    if ev.rule == "PD2a":
        break
print(f"rule {ev.rule}: {ev.from_state} -> {ev.to_state}")
print(f"measure {pre} -> {fold.measure}  (budget k2 drops by one)")

print("\n== event-level annotation (first ten) ==")
for seq, name in annotate_trace(trace)[:10]:
    print(f"  event {seq}: {name}")

print("\n== status changes of the first finalizing event ==")
ev = next(e for e in trace if 2 in e.payload.get("status_changes", {}).values())
print(f"event {ev.seq} ({ev.rule}): {ev.payload['status_changes']}")

# Forge a demotion: the last event flips one finalized node back to
# unprocessed.  The invariance monitor pinpoints the event.  It is the
# terminal PD7, which no measure has to descend across.
print("\n== forged status demotion ==")
events = list(trace)
last = events[-1]
victim = next(iter(events[0].payload["statuses"]))  # finalized by the end
events[-1] = last._replace(payload=dict(last.payload, status_changes={victim: 0}))
for verdict in run_all_checks(Trace("pdfd", events)):
    print(" ", verdict.line())
