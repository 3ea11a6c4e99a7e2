"""Lexicographic progress measure for the hybrid machines.

M = (k1, k2, k3, k4):
  k1  nodes not yet finalized (committed statuses),
  k2  remaining refinement budget, summed over all levels,
  k3  phase ordinal (processing 3, validation 2, bottom-up/depth 1, completion 0),
  k4  intra-phase progress (unvisited nodes of the level at S1(i), which
      is all of it; remaining range steps inside a refinement episode;
      remaining sweep levels in the bottom-up and completion phases).

Every non-terminal transition of both hybrid machines strictly decreases M.
The engines never compute M and the trace does not record it: the descent
monitor computes it from each event's target label, the episode origin it
folds from the labels and its own counts, and checks the descent event by
event.  ``TraceContext.from_payload`` is the monitors' one reader of a
trace's run parameters, each an exact JSON integer; ``csp._level_count``
reads the level count L alone, for the recognizer's level domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .jsondoc import exact_int, int_key, node_ids

Measure = tuple[int, int, int, int]

PHASE_ORDINAL = {"S0": 3, "S1": 3, "S1R": 3, "S2": 2, "S2R": 2, "S3": 1, "S3R": 1,
                 "S4": 0, "S5": 0, "T": 0}


# What reading a forged payload value raises: int("x"), a list for a map, a missing key.
UNREADABLE = (AttributeError, KeyError, TypeError, ValueError)


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
        """The run parameters of a first event's payload, map keys written as
        ``str(int)`` writes them; any other value raises ValueError naming it."""
        levels = {}
        for k, ids in payload["levels"].items():
            levels[int_key(k, "levels")] = tuple(node_ids(ids, f"levels[{k!r}]"))
        return cls(
            methodology=methodology,
            levels=levels,
            max_level=exact_int(payload["L"], "L"),
            r_max=exact_int(payload["r_max"], "r_max"),
            k_thresholds={int_key(k, "k"): exact_int(v, f"k[{k!r}]")
                          for k, v in payload.get("k", {}).items()},
        )

    def level_ids(self, k: int) -> tuple[int, ...]:
        return self.levels.get(k, ())


def measure(
    ctx: TraceContext,
    family: str,
    index: int | None,
    origin: int | None,
    k1: int,
    spent: int,
) -> Measure:
    """M at the state label ``family(index)``, from a monitor's counts:
    ``k1`` unfinalized nodes and ``spent`` refinement attempts.  ``origin``
    is the level whose failure opened the current refinement episode; only
    the R phases read it.  At S1(i) k4 is the size of level i, which is its
    unvisited count: rule legality holds the first map to all 0 and every
    later status change to its rule's effect, and no effect moves level i
    before the rule that leaves S1(i) marks it."""
    if family == "S1":
        k4 = len(ctx.level_ids(index))
    elif family == "S1R":
        k4 = origin - index + 2
    elif family in ("S2R", "S3R"):
        k4 = origin - index + 1
    elif family == "S3":
        k4 = max(index - 2, 0) if ctx.methodology == "pdfd" else 0
    elif family == "S4":
        k4 = ctx.max_level - index
    else:  # S2, S5, T
        k4 = 0
    k2 = ctx.r_max * max(ctx.max_level, 0) - spent
    m = (k1, k2, PHASE_ORDINAL[family], k4)
    if k1 < 0 or k2 < 0 or k4 < 0:  # every phase ordinal is >= 0
        raise MeasureError(f"measure components must be non-negative: {m}")
    return m


def trace_length_cap(n_nodes: int, max_level: int, r_max: int) -> int:
    """Hard upper bound on trace length implied by the measure descent.

    Conservative: each budget or finalization step allows a bounded plateau
    of phase/progress moves."""
    plateau = 4 * (n_nodes + 2 * max_level + 8)
    return (n_nodes + max_level * r_max + 5) * plateau + 4
