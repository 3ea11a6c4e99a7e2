"""Fixed- and variable-width bitmasks encoding a parent's child selections.

Bit ``i`` has weight ``2**i`` (LSB-first), so decimal values printed by the
store match the encoding used throughout the hierarchy fixtures.  Values are
immutable; every operation returns a new mask, which also makes them safe to
share between threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class BitmaskError(ValueError):
    """Base class for bitmask usage errors."""


class BitPositionError(BitmaskError):
    """Bit position outside the mask's capacity."""


class WidthMismatchError(BitmaskError):
    """Two masks of different width classes were combined."""


class DanglingBitError(BitmaskError):
    """A set bit has no corresponding child node."""


# Widest ``var:<n>`` class: a bound on ``1 << child_index`` and on every
# mask value, so no hierarchy can ask for a multi-gigabit int.
MAX_VAR_BITS = 2**20


class WidthKind(enum.Enum):
    W32 = "int32"
    W64 = "int64"
    WVAR = "var"


@dataclass(frozen=True, slots=True)
class WidthClass:
    """Capacity class of a mask: 32-bit, 64-bit, or arbitrary ``var:<n>``."""

    kind: WidthKind
    var_bits: int | None = None
    # Derived from the two fields above when the class is built.
    capacity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind is WidthKind.WVAR:
            if self.var_bits is None or self.var_bits <= 0:
                raise BitmaskError(f"variable width must be positive, got {self.var_bits}")
            if self.var_bits > MAX_VAR_BITS:
                raise BitmaskError(
                    f"variable width must be at most {MAX_VAR_BITS}, got {self.var_bits}"
                )
            capacity = self.var_bits
        elif self.var_bits is not None:
            raise BitmaskError(f"{self.kind.value} width takes no var_bits")
        else:
            capacity = 32 if self.kind is WidthKind.W32 else 64
        object.__setattr__(self, "capacity", capacity)

    @classmethod
    def parse(cls, text: str) -> "WidthClass":
        """Parse the serialized form: ``int32``, ``int64`` or ``var:<n>``."""
        if text == "int32":
            return W32
        if text == "int64":
            return W64
        if text.startswith("var:"):
            try:
                bits = int(text[4:])
            except ValueError:
                raise BitmaskError(f"unknown width class {text!r}") from None
            return cls(WidthKind.WVAR, bits)
        raise BitmaskError(f"unknown width class {text!r}")

    def serialize(self) -> str:
        if self.kind is WidthKind.WVAR:
            return f"var:{self.var_bits}"
        return self.kind.value

    @classmethod
    def for_child_count(cls, count: int) -> "WidthClass":
        """Smallest class able to hold ``count`` children (schema-time choice)."""
        if count <= 32:
            return W32
        if count <= 64:
            return W64
        return cls(WidthKind.WVAR, count)


@dataclass(frozen=True, slots=True)
class Bitmask:
    """An immutable bit vector of exactly ``width.capacity`` positions."""

    width: WidthClass
    value: int = 0

    def __post_init__(self) -> None:
        if self.value < 0:
            raise BitmaskError("mask value must be non-negative")
        if self.value >> self.width.capacity:
            raise BitmaskError(
                f"value {self.value} exceeds {self.width.capacity}-bit capacity"
            )

    def _check(self, i: int) -> None:
        if not 0 <= i < self.width.capacity:
            raise BitPositionError(
                f"bit {i} out of range for {self.width.serialize()} mask"
            )

    def set(self, i: int) -> "Bitmask":
        self._check(i)
        return Bitmask(self.width, self.value | (1 << i))

    def clear(self, i: int) -> "Bitmask":
        self._check(i)
        return Bitmask(self.width, self.value & ~(1 << i))

    def toggle(self, i: int) -> "Bitmask":
        self._check(i)
        return Bitmask(self.width, self.value ^ (1 << i))

    def test(self, i: int) -> bool:
        self._check(i)
        return bool((self.value >> i) & 1)

    def popcount(self) -> int:
        return self.value.bit_count()

    def bits(self) -> list[int]:
        """Positions of all set bits, ascending."""
        out = []
        v = self.value
        while v:
            low = v & -v
            out.append(low.bit_length() - 1)
            v ^= low
        return out

    def is_empty(self) -> bool:
        return self.value == 0

    def serialize(self) -> str | int:
        """Decimal for int32/int64, ``0x``-hex for variable widths."""
        if self.width.kind is WidthKind.WVAR:
            return f"0x{self.value:x}"
        return self.value

    @classmethod
    def deserialize(cls, width: WidthClass, raw: str | int) -> "Bitmask":
        if isinstance(raw, str):
            value = int(raw, 16) if raw.startswith("0x") else int(raw)
        else:
            value = int(raw)
        return cls(width, value)


W32 = WidthClass(WidthKind.W32)
W64 = WidthClass(WidthKind.W64)


def empty(width: WidthClass) -> Bitmask:
    return Bitmask(width)


class CombineOp(enum.Enum):
    UNION = "union"
    INTERSECT = "intersect"


def combine(a: Bitmask, b: Bitmask, op: CombineOp) -> Bitmask:
    """Bitwise OR / AND of two masks with identical width class."""
    if a.width != b.width:
        raise WidthMismatchError(
            f"cannot combine {a.width.serialize()} with {b.width.serialize()}"
        )
    if op is CombineOp.UNION:
        return Bitmask(a.width, a.value | b.value)
    return Bitmask(a.width, a.value & b.value)


def encode_children(width: WidthClass, positions: list[int]) -> Bitmask:
    """Fold of set() over child bit positions."""
    m = empty(width)
    for i in positions:
        m = m.set(i)
    return m
