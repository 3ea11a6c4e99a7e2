"""Lexicographic progress measure for the hybrid machines.

M = (k1, k2, k3, k4):
  k1  nodes not yet finalized (committed statuses),
  k2  remaining refinement budget, summed over all levels,
  k3  phase ordinal (processing 3, validation 2, bottom-up/depth 1, completion 0),
  k4  intra-phase progress (unvisited nodes in the current batch during
      processing; remaining range steps inside a refinement episode;
      remaining sweep levels in the bottom-up and completion phases).

Every non-terminal transition of both hybrid machines strictly decreases M,
which is what the descent monitor checks event by event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

Measure = tuple[int, int, int, int]

PHASE_ORDINAL = {
    "S0": 3,
    "S1": 3,
    "S1R": 3,
    "S2": 2,
    "S2R": 2,
    "S3": 1,
    "S3R": 1,
    "S4": 0,
    "S5": 0,
    "T": 0,
}


class MeasureError(ValueError):
    """A measure component came out negative: the run parameters (for
    example a negative refinement budget) admit no well-founded descent."""


@dataclass(frozen=True)
class TraceContext:
    """Static run parameters recovered from the first trace event."""

    methodology: str
    levels: dict[int, tuple[int, ...]]
    max_level: int
    r_max: int
    k_thresholds: dict[int, int]

    @classmethod
    def from_payload(cls, methodology: str, payload: dict[str, Any]) -> "TraceContext":
        levels = {
            int(k): tuple(int(n) for n in v) for k, v in payload["levels"].items()
        }
        return cls(
            methodology=methodology,
            levels=levels,
            max_level=int(payload["L"]),
            r_max=int(payload["r_max"]),
            k_thresholds={int(k): int(v) for k, v in payload.get("k", {}).items()},
        )

    def level_ids(self, k: int) -> tuple[int, ...]:
        return self.levels.get(k, ())


def measure_with_counts(
    payload: dict[str, Any], ctx: TraceContext, k1: int, spent: int, unvisited: dict[int, int]
) -> Measure:
    """M from a payload's phase and indices and a monitor's counts: ``k1``
    unfinalized nodes, ``spent`` refinement attempts and the unvisited nodes
    of each level (a node missing from the status map counts as unvisited)."""
    phase = payload["phase"]
    i = payload.get("i")
    return compose_measure(
        ctx,
        phase,
        i,
        payload.get("j"),
        payload.get("i_orig"),
        k1,
        ctx.r_max * max(ctx.max_level, 0) - spent,
        unvisited.get(int(i), 0) if phase == "S1" else 0,
    )


def compose_measure(
    ctx: TraceContext,
    phase: str,
    i: Any,
    j: Any,
    i_orig: Any,
    k1: int,
    k2: int,
    unvisited: int,
) -> Measure:
    """M from its counted parts: the unfinalized-node count ``k1``, the
    remaining budget ``k2`` and, for phase S1, the unvisited nodes of level
    ``i``.  The phase and indices give k3 and the rest of k4."""
    m = (k1, k2, PHASE_ORDINAL[phase], _k4(ctx, phase, i, j, i_orig, unvisited))
    if min(m) < 0:
        raise MeasureError(f"measure components must be non-negative: {m}")
    return m


def _k4(ctx: TraceContext, phase: str, i: Any, j: Any, i_orig: Any, unvisited: int) -> int:
    if phase == "S0":
        return len(ctx.level_ids(1)) + 1
    if phase == "S1":
        return unvisited
    if phase == "S2":
        return 0
    if phase == "S1R":
        return (int(i_orig) - int(j)) + 2
    if phase == "S2R":
        return (int(i_orig) - int(j)) + 1
    if phase == "S3R":
        return (int(i_orig) - int(j)) + 1
    if phase == "S3":
        return max(int(i) - 2, 0) if ctx.methodology == "pdfd" else 0
    if phase == "S4":
        return ctx.max_level - int(i)
    return 0  # S5, T


def trace_length_cap(n_nodes: int, max_level: int, r_max: int) -> int:
    """Hard upper bound on trace length implied by the measure descent.

    Conservative: each budget or finalization step allows a bounded plateau
    of phase/progress moves."""
    plateau = 4 * (n_nodes + 2 * max_level + 8)
    return (n_nodes + max_level * r_max + 5) * plateau + 4
