"""Trace-verified workflow machines over hierarchical data, with a
bitmask-encoded selection store and a normalized-store oracle."""

from .bitmask import Bitmask, CombineOp, W32, W64, WidthClass, combine
from .hierarchy import (
    Hierarchy,
    HierarchyNode,
    load_hierarchy,
    remaining_after_prune,
)
from .hybrid_machines import RunResult, run_pbfd, run_pdfd
from .oracle import NormalizedStore, OracleOp
from .scenario import Scenario, TraceOriginStrategy, load_scenario, resolve_trace_origin
from .tle import TleStore, TraversalPage, decode, generate_schema, tle_traverse
from .trace import Trace, TraceEvent

__all__ = [
    "Bitmask",
    "CombineOp",
    "W32",
    "W64",
    "WidthClass",
    "combine",
    "Hierarchy",
    "HierarchyNode",
    "load_hierarchy",
    "remaining_after_prune",
    "RunResult",
    "run_pbfd",
    "run_pdfd",
    "NormalizedStore",
    "OracleOp",
    "Scenario",
    "TraceOriginStrategy",
    "load_scenario",
    "resolve_trace_origin",
    "TleStore",
    "TraversalPage",
    "decode",
    "generate_schema",
    "tle_traverse",
    "Trace",
    "TraceEvent",
]

__version__ = "0.1.0"
