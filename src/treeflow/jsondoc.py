"""JSON decoding shared by every document loader."""

from __future__ import annotations

import json
import math
from typing import Any


class JSONDocumentError(ValueError):
    """Text that the JSON decoder cannot read."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise JSONDocumentError(f"invalid JSON: {text} is not a finite number")
    return value


# Infinity, -Infinity and NaN are not JSON, and 1e999 reads as infinity: a
# document holding one is refused here, so no loader meets int(inf).
DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)


def decode_json(text: str) -> Any:
    """``json.loads`` whose every failure is a JSONDocumentError worded
    ``invalid JSON: <reason>``.  Nesting deeper than the decoder's recursion
    limit is one such failure, not a RecursionError."""
    try:
        return DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise JSONDocumentError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise JSONDocumentError("invalid JSON: nested too deeply") from None
