"""The UTF-8 reader and JSON decoding shared by every document loader, the
rules for integers in a decoded document, and the one writer of output
files."""

from __future__ import annotations

import json
import math
import os
import stat
from pathlib import Path
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


class IntKeyError(ValueError):
    """A map key ``int()`` reads that is not written as ``str(int)`` writes it."""


def exact(value: Any, types: tuple[type, ...], noun: str, what: str = "") -> Any:
    """``value`` when its class is one of ``types``, else ValueError: ``what`` must be ``noun``."""
    # bool is a subclass of int, so the exact class is tested.
    if value.__class__ not in types:
        raise ValueError(f"{what} must be {noun}, got {value!r}".lstrip())
    return value


def exact_int(value: Any, what: str = "") -> int:
    """``value`` when it is a JSON integer: not a bool, a float or a string."""
    return exact(value, (int,), "an integer", what)


def node_ids(value: Any, what: str = "") -> list[int]:
    """``value`` when it is a JSON list of integers, as node ids are written."""
    if value.__class__ is not list or any(n.__class__ is not int for n in value):
        raise ValueError(f"{what} must be a list of node ids, got {value!r}".lstrip())
    return value


def int_key(key: str, what: str = "") -> int:
    """The integer a map key writes as ``str(int)`` writes it.  A key written
    any other way raises IntKeyError, one ``int()`` cannot read its ValueError."""
    n = int(key)  # also reads " 3", "+3", "03", "1_0" and non-ASCII digits
    if str(n) != key:
        raise IntKeyError(f"{what} key {key!r} must be written {str(n)!r}".lstrip())
    return n


def read_text(path: str | Path) -> str:
    """The file at ``path`` decoded as UTF-8, the encoding RFC 8259 requires
    and ``write_text`` writes, whatever the locale.  Bytes that are not
    UTF-8 raise JSONDocumentError."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise JSONDocumentError(f"invalid JSON: not UTF-8 at byte {exc.start}") from None


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path``, in place.

    The file is opened without ``O_TRUNC`` and written from its start; a
    regular file is then cut to the written length.  Truncating an ext4 file
    that holds data and writing it again makes ext4 flush the new data when
    the file is closed (``auto_da_alloc``); writing in place does not.  An
    existing file keeps its inode, mode, hard links and symlink target.  A
    FIFO or a device such as ``/dev/null`` is only written to.  The write is
    not atomic: a reader may see old and new bytes mixed."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
