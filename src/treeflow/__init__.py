"""Trace-verified workflow machines over hierarchical data, with a
bitmask-encoded selection store and a normalized-store oracle.

Import the submodules directly (``treeflow.tle``, ``treeflow.hierarchy``, …):
importing the package itself loads none of them."""
