"""Bitmask codec: worked decimal values, arithmetic oracles, properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeflow.bitmask import (
    Bitmask,
    BitmaskError,
    MAX_VAR_BITS,
    BitPositionError,
    CombineOp,
    W32,
    W64,
    WidthClass,
    WidthKind,
    WidthMismatchError,
    combine,
    empty,
    encode_children,
)


class TestWorkedValues:
    def test_set_0_then_4_gives_17(self):
        m = empty(W32).set(0).set(4)
        assert m.value == 17  # 0b10001

    def test_w64_set_11_and_18_gives_264192(self):
        m = empty(W64).set(11).set(18)
        assert m.value == 264192

    def test_clear_bit0_of_21_gives_20(self):
        assert Bitmask(W32, 21).clear(0).value == 20

    def test_toggle_involution(self):
        m = empty(W32).toggle(2)
        assert m.value == 4
        assert m.toggle(2).value == 0

    def test_toggle_21_bit4_gives_5(self):
        assert Bitmask(W32, 21).toggle(4).value == 5

    def test_toggle_257_bit8_gives_1(self):
        assert Bitmask(W32, 257).toggle(8).value == 1

    def test_test_bit12_of_4097(self):
        assert Bitmask(W32, 4097).test(12)
        assert Bitmask(W32, 4097).test(0)
        assert not Bitmask(W32, 4097).test(1)

    def test_union_1_and_16_gives_17(self):
        got = combine(Bitmask(W32, 1), Bitmask(W32, 16), CombineOp.UNION)
        assert got.value == 17

    def test_intersect_17_21_gives_17(self):
        got = combine(Bitmask(W32, 17), Bitmask(W32, 21), CombineOp.INTERSECT)
        assert got.value == 17

    def test_clear_3_bit1_gives_1(self):
        assert Bitmask(W32, 3).clear(1).value == 1


class TestArithmeticOracles:
    """Exhaustive agreement with plain integer bit arithmetic."""

    def test_ops_on_all_8bit_masks(self):
        for v in range(256):
            for i in range(8):
                m = Bitmask(W32, v)
                assert m.set(i).value == v | (1 << i)
                assert m.clear(i).value == v & ~(1 << i)
                assert m.toggle(i).value == v ^ (1 << i)

    def test_test_bit_on_all_16bit_masks(self):
        for v in range(0, 1 << 16, 37):  # stride keeps it quick; ends included
            for i in range(16):
                assert Bitmask(W32, v).test(i) == bool((v >> i) & 1)
        for v in ((1 << 16) - 1, 4097, 264192 & 0xFFFF):
            for i in range(16):
                assert Bitmask(W32, v).test(i) == bool((v >> i) & 1)

    def test_combine_agrees_with_boolean_ops_exhaustive_8bit(self):
        for a in range(0, 256, 7):
            for b in range(0, 256, 5):
                u = combine(Bitmask(W32, a), Bitmask(W32, b), CombineOp.UNION)
                n = combine(Bitmask(W32, a), Bitmask(W32, b), CombineOp.INTERSECT)
                for i in range(8):
                    assert u.test(i) == (bool(a >> i & 1) or bool(b >> i & 1))
                    assert n.test(i) == (bool(a >> i & 1) and bool(b >> i & 1))


class TestProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 31))
    def test_set_idempotent(self, v, i):
        m = Bitmask(W32, v)
        assert m.set(i).set(i) == m.set(i)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 31))
    def test_single_bit_locality(self, v, i):
        """Each mutator touches exactly the one position."""
        m = Bitmask(W32, v)
        for out in (m.set(i), m.clear(i), m.toggle(i)):
            for k in range(32):
                if k != i:
                    assert out.test(k) == m.test(k)

    @given(st.sets(st.integers(0, 63), max_size=20))
    def test_encode_bits_round_trip(self, positions):
        m = encode_children(W64, sorted(positions))
        assert set(m.bits()) == positions
        assert m.popcount() == len(positions)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_combine_commutes(self, a, b):
        for op in CombineOp:
            x = combine(Bitmask(W32, a), Bitmask(W32, b), op)
            y = combine(Bitmask(W32, b), Bitmask(W32, a), op)
            assert x == y

    def test_union_identity_is_empty_mask(self):
        m = Bitmask(W32, 123456)
        assert combine(m, empty(W32), CombineOp.UNION) == m

    def test_intersect_idempotent(self):
        m = Bitmask(W32, 0b1011)
        assert combine(m, m, CombineOp.INTERSECT) == m


class TestWidthClasses:
    def test_capacities(self):
        assert W32.capacity == 32
        assert W64.capacity == 64
        assert WidthClass.parse("var:120").capacity == 120
        assert WidthClass.parse(f"var:{MAX_VAR_BITS}").capacity == MAX_VAR_BITS == 2**20

    def test_parse_round_trip(self):
        for text in ("int32", "int64", "var:7"):
            assert WidthClass.parse(text).serialize() == text

    def test_position_out_of_range(self):
        with pytest.raises(BitPositionError):
            empty(W32).set(32)
        with pytest.raises(BitPositionError):
            Bitmask(WidthClass.parse("var:5"), 0).test(5)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            combine(empty(W32), empty(W64), CombineOp.UNION)

    def test_var_bits_beyond_capacity_rejected(self):
        with pytest.raises(ValueError):
            Bitmask(WidthClass.parse("var:4"), 16)

    def test_serialization_decimal_vs_hex(self):
        assert Bitmask(W32, 21).serialize() == 21
        assert Bitmask(W64, 264192).serialize() == 264192
        var = Bitmask(WidthClass.parse("var:120"), 268435520)
        assert var.serialize() == "0x10000040"
        assert Bitmask.deserialize(WidthClass.parse("var:120"), "0x10000040").value == 268435520

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

    @pytest.mark.parametrize("text", ["var:x", "var:", "int16", "var:1.5"])
    def test_unknown_width_text(self, text):
        with pytest.raises(BitmaskError) as err:
            WidthClass.parse(text)
        assert str(err.value) == f"unknown width class {text!r}"

    def test_width_for_child_count(self):
        assert WidthClass.for_child_count(32) == W32
        assert WidthClass.for_child_count(33) == W64
        assert WidthClass.for_child_count(65).capacity == 65
