"""The bitmask cell: width classes, the snapshot codec, and the bit
arithmetic ``TleStore.update``/``lookup`` do on one cell, against worked
decimal values, plain integer oracles and properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeflow.bitmask import (
    MAX_VAR_BITS,
    W32,
    W64,
    BitmaskError,
    WidthClass,
    WidthKind,
)
from treeflow.fixtures import GEO, geo_hierarchy, geo_store, uniform_hierarchy
from treeflow.tle import TleStore, decode

SUBJECT = 1


def cell_store(n: int, width: str = "int32") -> TleStore:
    """A store over one cell: column node 1 of a three-level tree, whose
    ``n`` children (node ids 2 .. n+1) sit at bits 0 .. n-1."""
    return TleStore(uniform_hierarchy([1, 1, n], widths=["int32", width, "int32"]))


def child(i: int) -> int:
    """Node id of the child at bit ``i`` of a ``cell_store`` cell."""
    return i + 2


def cell(store: TleStore) -> int:
    rec = store.records.get((SUBJECT, 0))
    return 0 if rec is None else rec[1]


def set_cell(store: TleStore, value: int) -> None:
    store.records[(SUBJECT, 0)] = {1: value}  # node 1 is unit 0's one column


def toggle(store: TleStore, node_id: int) -> None:
    store.update(SUBJECT, node_id, not store.lookup(SUBJECT, node_id))


def geo_cell(store: TleStore, unit: str, column: str) -> int:
    return store.records[(SUBJECT, GEO[unit])][GEO[column]]


class TestWorkedValues:
    def test_set_0_then_4_gives_17(self):
        store = TleStore(geo_hierarchy())
        store.update(SUBJECT, GEO["north_america"], True)  # bit 0
        store.update(SUBJECT, GEO["asia"], True)  # bit 4
        assert geo_cell(store, "root", "anchor") == 17  # 0b10001

    def test_w64_set_11_and_18_gives_264192(self):
        store = TleStore(geo_hierarchy())
        for name in ("north_america", "united_states", "virginia", "maryland"):
            store.update(SUBJECT, GEO[name], True)
        # Virginia and Maryland sit at bits 11 and 18 of an int64 cell.
        assert geo_cell(store, "north_america", "united_states") == 264192

    def test_clear_bit0_of_21_gives_20(self):
        store = geo_store()
        store.update(SUBJECT, GEO["north_america"], False)
        assert geo_cell(store, "root", "anchor") == 20

    def test_toggle_involution(self):
        store = cell_store(8)
        toggle(store, child(2))
        assert cell(store) == 4
        toggle(store, child(2))
        assert cell(store) == 0

    def test_toggle_21_bit4_gives_5(self):
        store = geo_store()
        toggle(store, GEO["asia"])
        assert geo_cell(store, "root", "anchor") == 5

    def test_toggle_257_bit8_gives_1(self):
        store = geo_store()
        toggle(store, GEO["virginia_square"])
        assert geo_cell(store, "virginia", "arlington_county") == 1

    def test_test_bit12_of_4097(self):
        store = cell_store(16)
        set_cell(store, 4097)
        assert store.lookup(SUBJECT, child(12))
        assert store.lookup(SUBJECT, child(0))
        assert not store.lookup(SUBJECT, child(1))

    def test_union_1_and_16_gives_17(self):
        """Selecting ORs the child's bit into the cell."""
        store = cell_store(8)
        set_cell(store, 1)
        store.update(SUBJECT, child(4), True)
        assert cell(store) == 17

    def test_intersect_17_21_gives_17(self):
        """Deselecting ANDs the cell with the complement of the child's bit:
        21 & ~4 == 21 & 17 == 17."""
        store = cell_store(8)
        set_cell(store, 21)
        store.update(SUBJECT, child(2), False)
        assert cell(store) == 17

    def test_clear_3_bit1_gives_1(self):
        store = geo_store()
        store.update(SUBJECT, GEO["ellicott_city"], False)  # bit 1 of Howard County
        assert geo_cell(store, "maryland", "howard_county") == 1


class TestArithmeticOracles:
    """Exhaustive agreement with plain integer bit arithmetic."""

    def test_ops_on_all_8bit_masks(self):
        store = cell_store(8)
        for v in range(256):
            for i in range(8):
                set_cell(store, v)
                store.update(SUBJECT, child(i), True)
                assert cell(store) == v | (1 << i)
                set_cell(store, v)
                store.update(SUBJECT, child(i), False)
                assert cell(store) == v & ~(1 << i)
                set_cell(store, v)
                toggle(store, child(i))
                assert cell(store) == v ^ (1 << i)

    def test_test_bit_on_all_16bit_masks(self):
        store = cell_store(16)
        values = [*range(0, 1 << 16, 37), (1 << 16) - 1, 4097, 264192 & 0xFFFF]
        for v in values:  # stride keeps it quick; ends included
            set_cell(store, v)
            for i in range(16):
                assert store.lookup(SUBJECT, child(i)) == bool((v >> i) & 1)

    def test_combine_agrees_with_boolean_ops_exhaustive_8bit(self):
        """Selecting every bit of b ORs it in; deselecting every bit outside
        b ANDs the cell with b."""
        store = cell_store(8)
        for a in range(0, 256, 7):
            for b in range(0, 256, 5):
                set_cell(store, a)
                for i in range(8):
                    if b >> i & 1:
                        store.update(SUBJECT, child(i), True)
                assert cell(store) == a | b
                set_cell(store, a)
                for i in range(8):
                    if not b >> i & 1:
                        store.update(SUBJECT, child(i), False)
                assert cell(store) == a & b
                for i in range(8):
                    assert store.lookup(SUBJECT, child(i)) == bool((a & b) >> i & 1)


class TestProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 31))
    def test_set_idempotent(self, v, i):
        store = cell_store(32)
        set_cell(store, v)
        store.update(SUBJECT, child(i), True)
        once = cell(store)
        store.update(SUBJECT, child(i), True)
        assert cell(store) == once

    @given(st.integers(0, 2**32 - 1), st.integers(0, 31))
    def test_single_bit_locality(self, v, i):
        """Select, deselect and toggle each touch exactly the one position."""
        store = cell_store(32)
        for op in (
            lambda: store.update(SUBJECT, child(i), True),
            lambda: store.update(SUBJECT, child(i), False),
            lambda: toggle(store, child(i)),
        ):
            set_cell(store, v)
            op()
            assert (cell(store) ^ v) & ~(1 << i) == 0

    @given(st.sets(st.integers(0, 63), max_size=20))
    def test_encode_bits_round_trip(self, positions):
        store = cell_store(64, "int64")
        for i in sorted(positions):
            store.update(SUBJECT, child(i), True)
        mask = cell(store)
        h = store.hierarchy
        assert {c.child_index for c in decode(mask, h.node(1), h)} == positions
        assert mask.bit_count() == len(positions)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_combine_commutes(self, a, b):
        """Selecting the bits of a and of b gives one cell in either order."""
        cells = []
        for first, second in ((a, b), (b, a)):
            store = cell_store(32)
            for value in (first, second):
                for i in range(32):
                    if value >> i & 1:
                        store.update(SUBJECT, child(i), True)
            cells.append(cell(store))
        assert cells == [a | b, a | b]

    def test_intersect_idempotent(self):
        store = cell_store(8)
        set_cell(store, 0b1011)
        store.update(SUBJECT, child(1), False)
        assert cell(store) == 0b1001
        store.update(SUBJECT, child(1), False)
        assert cell(store) == 0b1001


class TestWidthClasses:
    def test_capacities(self):
        assert W32.capacity == 32
        assert W64.capacity == 64
        assert WidthClass.parse("var:120").capacity == 120
        assert WidthClass.parse(f"var:{MAX_VAR_BITS}").capacity == MAX_VAR_BITS == 2**20

    def test_parse_round_trip(self):
        for text in ("int32", "int64", "var:1", "var:7", "var:10", f"var:{MAX_VAR_BITS}"):
            assert WidthClass.parse(text).serialize() == text

    def test_position_out_of_range(self):
        assert W32.check(1 << 31) == 1 << 31
        with pytest.raises(BitmaskError, match="^value 4294967296 exceeds 32-bit capacity$"):
            W32.check(1 << 32)
        with pytest.raises(BitmaskError, match="^value 32 exceeds 5-bit capacity$"):
            WidthClass.parse("var:5").check(1 << 5)

    def test_var_bits_beyond_capacity_rejected(self):
        with pytest.raises(ValueError):
            WidthClass.parse("var:4").check(16)

    def test_serialization_decimal_vs_hex(self):
        assert W32.dump_mask(21) == 21
        assert W64.dump_mask(264192) == 264192
        var = WidthClass.parse("var:120")
        assert var.dump_mask(268435520) == "0x10000040"
        assert var.load_mask("0x10000040") == 268435520

    @pytest.mark.parametrize("kind,bits,message", [
        (WidthKind.WVAR, None, "variable width must be positive, got None"),
        (WidthKind.WVAR, 0, "variable width must be positive, got 0"),
        (WidthKind.W32, 5, "int32 width takes no var_bits"),
        (WidthKind.WVAR, 2**20 + 1, "variable width must be at most 1048576, got 1048577"),
        (WidthKind.WVAR, 10**21, f"variable width must be at most 1048576, got {10**21}"),
    ])
    def test_inconsistent_width_class_is_a_typed_error(self, kind, bits, message):
        with pytest.raises(BitmaskError) as err:
            WidthClass(kind, bits)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", [
        "var:x", "var:", "int16", "var:1.5",
        # int() reads these, but serialize() would write them back as
        # another text: only the canonical form loads.
        "var: 8", "var:8 ", "var:1_0", "var:+5", "var:\uff18", "var:08", "var:-0", "var:-01",
    ])
    def test_unknown_width_text(self, text):
        with pytest.raises(BitmaskError) as err:
            WidthClass.parse(text)
        assert str(err.value) == f"unknown width class {text!r}"

    @pytest.mark.parametrize("text,message", [
        ("var:0", "variable width must be positive, got 0"),
        ("var:-1", "variable width must be positive, got -1"),
        ("var:1048577", "variable width must be at most 1048576, got 1048577"),
    ])
    def test_canonical_width_out_of_range(self, text, message):
        with pytest.raises(BitmaskError) as err:
            WidthClass.parse(text)
        assert str(err.value) == message


WIDTHS = ["int32", "int64", "var:1", "var:120", f"var:{2**20}"]


class TestCodec:
    """``dump_mask``/``load_mask`` at each width's boundary values."""

    @pytest.mark.parametrize("text", WIDTHS)
    def test_round_trip_at_the_boundaries(self, text):
        width = WidthClass.parse(text)
        top = 1 << (width.capacity - 1)
        for value in (0, 1, top, (top << 1) - 1):
            raw = width.dump_mask(value)
            assert raw.__class__ is (str if text.startswith("var:") else int)
            assert width.load_mask(raw) == value

    @pytest.mark.parametrize("text", WIDTHS)
    def test_refuses_a_value_past_the_capacity(self, text):
        width = WidthClass.parse(text)
        over = 1 << width.capacity
        shown = over if width.capacity < 1024 else f"of {width.capacity + 1} bits"
        message = f"value {shown} exceeds {width.capacity}-bit capacity"
        for raw in (over, f"0x{over:x}"):
            with pytest.raises(BitmaskError) as err:
                width.load_mask(raw)
            assert str(err.value) == message

    @pytest.mark.parametrize("text", WIDTHS)
    def test_refuses_a_negative_value(self, text):
        with pytest.raises(BitmaskError, match="^mask value must be non-negative$"):
            WidthClass.parse(text).load_mask(-1)

    @pytest.mark.parametrize("raw", [
        True, False, 1.5, 1.0, None, [1], " 3 ", "1_0", "21", "0X15", "0x", "-0x1", "0xFF", "0x1 ",
    ])
    def test_refuses_anything_but_an_integer_or_hex_text(self, raw):
        for width in (W32, WidthClass.parse("var:120")):
            with pytest.raises(BitmaskError) as err:
                width.load_mask(raw)
            assert str(err.value) == f"mask must be an integer or 0x hex text, got {raw!r}"
