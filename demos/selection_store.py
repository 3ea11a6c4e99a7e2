"""Walkthrough: the three-level selection store on the geographic dataset.

Each storage unit keys one grandparent node; its columns are that node's
children and each column's bitmask encodes the column node's own children.
Run top to bottom:  python3 demos/selection_store.py
"""

from treeflow.fixtures import GEO, geo_hierarchy
from treeflow.tle import TleStore, TraversalPage, decode, tle_traverse

h = geo_hierarchy()
store = TleStore(h)
person = 1

print("== schema ==")
for unit in store.schema.units.values():
    columns = ", ".join(h.node(c).name for c in unit.parent_column_ids)
    print(f"unit[{h.node(unit.grandparent_id).name}] columns: {columns}")

# Selecting three continents sets three bits in the root unit's single
# column: positions 0, 2 and 4 give the decimal value 21.
print("\n== selecting continents ==")
for name in ("north_america", "europe", "asia"):
    store.update(person, GEO[name], True)
mask = store.records[(person, GEO["root"])][GEO["anchor"]]
print(f"continent mask: {mask} (binary {mask:08b})")
print("decoded:", sorted(n.name for n in decode(mask, h.node(GEO["anchor"]), h)))

# Down the tree: two countries, two states each for the US and Canada.
print("\n== selecting the tracked branch ==")
for name in (
    "united_states", "canada", "virginia", "maryland", "ontario", "nunavut",
    "howard_county", "columbia_md", "ellicott_city",
):
    store.update(person, GEO[name], True)
us_mask = store.records[(person, GEO["north_america"])][GEO["united_states"]]
us_bits = [i for i in range(us_mask.bit_length()) if (us_mask >> i) & 1]
print(f"state mask for the US column: {us_mask} (bits {us_bits})")
print(f"lookup(maryland) -> {store.lookup(person, GEO['maryland'])}")
print(f"steps so far: {store.counter.steps} (every lookup costs exactly 3)")

print("\n== path report ==")
for line in store.report_paths(person):
    print(" ", line)

# Deselecting a continent through the cascading reset clears its bit and
# wipes every cell under it; 21 becomes 20.
print("\n== cascading reset ==")
store.reset_subtree(person, GEO["north_america"])
mask = store.records[(person, GEO["root"])][GEO["anchor"]]
print(f"continent mask after reset: {mask}")
print("report now:")
for line in store.report_paths(person):
    print(" ", line)

# The paged traversal drives the same store through the staged loop.
print("\n== paged traversal ==")
trace = tle_traverse(
    store,
    person,
    [
        TraversalPage((GEO["anchor"],), {GEO["north_america"]: True}),
        TraversalPage((GEO["north_america"],), {GEO["united_states"]: True}),
    ],
)
print("rules fired:", " ".join(trace.rules()))

print("\n== storage accounting ==")
rep = store.storage_report(key_bits=32)
print(
    f"store bits: {rep['tle_bits']}, row-model bits: {rep['traditional_bits']}, "
    f"ratio: {rep['ratio']}"
)
