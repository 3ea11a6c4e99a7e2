"""Width classes of the store's bitmask cells, and the cell codec.

A cell is a plain non-negative int encoding a parent's child selections:
bit ``i`` has weight ``2**i`` (LSB-first), so decimal values printed by the
store match the encoding used throughout the hierarchy fixtures.  The
parent's width class bounds the value and picks its snapshot form: decimal
for int32/int64, ``0x``-hex for ``var:<n>``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field


class BitmaskError(ValueError):
    """Base class for bitmask usage errors."""


class DanglingBitError(BitmaskError):
    """A set bit has no corresponding child node."""


# Widest ``var:<n>`` class: a bound on ``1 << child_index`` and on every
# mask value, so no hierarchy can ask for a multi-gigabit int.
MAX_VAR_BITS = 2**20

_HEX_MASK = re.compile(r"0x[0-9a-f]+")
_PRINTABLE_BITS = 1024


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
        """Parse the serialized form: ``int32``, ``int64`` or ``var:<n>``,
        exactly as ``serialize`` writes it, so ``var:08``, ``var:+8`` or
        ``var: 8`` is refused rather than read back as ``var:8``."""
        if text == "int32":
            return W32
        if text == "int64":
            return W64
        if text.startswith("var:"):
            try:
                bits = int(text[4:])
            except ValueError:
                pass
            else:
                if text == f"var:{bits}":
                    return cls(WidthKind.WVAR, bits)
        raise BitmaskError(f"unknown width class {text!r}")

    def serialize(self) -> str:
        if self.kind is WidthKind.WVAR:
            return f"var:{self.var_bits}"
        return self.kind.value

    def check(self, value: int) -> int:
        """``value`` itself when it fits this width; BitmaskError otherwise."""
        if value < 0:
            raise BitmaskError("mask value must be non-negative")
        if value >> self.capacity:
            # A value too wide to print in decimal is named by its bit length.
            bits = value.bit_length()
            shown = value if bits <= _PRINTABLE_BITS else f"of {bits} bits"
            raise BitmaskError(f"value {shown} exceeds {self.capacity}-bit capacity")
        return value

    def dump_mask(self, value: int) -> int | str:
        """Snapshot form of a cell: decimal for int32/int64, ``0x``-hex for
        variable widths."""
        if self.kind is WidthKind.WVAR:
            return f"0x{value:x}"
        return value

    def load_mask(self, raw: object) -> int:
        """A cell read back from its snapshot form: an exact JSON integer
        (never a bool) or ``0x``-hex text, checked against the capacity."""
        if raw.__class__ is int:
            return self.check(raw)
        if raw.__class__ is str and _HEX_MASK.fullmatch(raw):
            return self.check(int(raw, 16))
        raise BitmaskError(f"mask must be an integer or 0x hex text, got {raw!r}")


W32 = WidthClass(WidthKind.W32)
W64 = WidthClass(WidthKind.W64)
