"""Trace events emitted by the state machines and the store traversal.

One event per fired transition rule.  Events chain: ``to_state`` of event n
equals ``from_state`` of event n+1.  A record is its rule, its two state
labels, its sequence number and its payload; hybrid-machine payloads carry
the committed node statuses, which the verification monitors fold.  Top-level
keys other than these, such as the ``measure_pre`` and ``measure_post`` of
older writers, are ignored when read.  A state label is a family or
``family(n)``; ``parse_label`` reads it, and a trace's ``labels`` table
keeps each label's reading for the monitors that check it.

Statuses travel as deltas (``TRACE_FORMAT`` 2): the first event's payload
holds the full ``statuses`` map and ``"trace_format": 2``, and every later
event holds ``status_changes``, the new status of exactly the nodes that step
changed.  ``StatusFold`` rebuilds each event's map, one event at a time,
and ``fold_statuses`` runs it over a trace.  It also reads format 1, where
every event carries the full map.
"""

from __future__ import annotations

import json
from functools import cached_property
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .jsondoc import DECODER, JSONDocumentError, decode_json, read_text, write_text

TRACE_FORMAT = 2

# Values are encoded as json.dumps(value, sort_keys=True) encodes them.
_ENCODER = json.JSONEncoder(sort_keys=True)
_new_tuple = tuple.__new__
# The decoder's scanner without json.loads's whitespace handling around it.
_scan = DECODER.scan_once


def _chunk_encoder() -> Callable[[Any, int], Iterable[str]]:
    """The encoder ``json.dumps(..., sort_keys=True)`` builds per call, built
    once for the values of one trace: the C encoder, with the arguments
    ``_ENCODER.iterencode`` gives it and its own circular-reference
    markers, called as ``encoder(value, 0)`` for the value's chunks.
    Without the C encoder, ``_ENCODER.encode`` gives the one chunk."""
    if c_make_encoder is None:
        return lambda value, _level: (_ENCODER.encode(value),)
    e = _ENCODER
    return c_make_encoder({}, e.default, encode_basestring_ascii, e.indent,
                          e.key_separator, e.item_separator, e.sort_keys,
                          e.skipkeys, e.allow_nan)


class TraceFormatError(ValueError):
    """A persisted trace line that is not a valid event record."""


class StatusFoldError(TraceFormatError):
    """A status map or delta the fold cannot apply; ``seq`` names the event."""

    def __init__(self, seq: Any, detail: str):
        super().__init__(f"event {seq}: {detail}")
        self.seq = seq
        self.detail = detail


def parse_label(label: str) -> tuple[str, int | None]:
    """A state label's family and index: ``S1R(2)`` reads ("S1R", 2), ``T``
    reads ("T", None).  A label is a family alone or ``family(<index>)``,
    the index written as ``str(int)`` writes an integer >= 1, in ASCII
    digits: ``S1R(2)``, never ``S1R(02)``, ``S1R(+2)``, ``S1R( 2)`` or an
    Arabic-Indic two.  The family is the text before the first ``(``, so
    any other label, such as ``S1R(2]`` or ``S1R(x)``, still has one; its
    index reads 0, which no label in the grammar has."""
    family, paren, rest = label.partition("(")
    if not paren:
        return family, None
    digits = rest[:-1]
    if rest[-1:] == ")" and digits.isascii() and digits.isdigit() and digits[0] != "0":
        return family, int(digits)
    return family, 0


class LabelTable(dict):
    """``parse_label`` of each label looked up, made at its first lookup
    and kept: ``table[label]``.  The monitors of one verify share one
    table, ``Trace.labels`` or the run enumerator's, so each distinct label
    is parsed once however many events and monitors read it."""

    __slots__ = ()

    def __missing__(self, label: str) -> tuple[str, int | None]:
        parsed = self[label] = parse_label(label)
        return parsed


class TraceEvent(NamedTuple):
    """One fired rule; a tuple, so it is immutable and equal by value.
    ``payload`` has no default: a ``{}`` default would be one dict shared by
    every event built without it."""

    seq: int
    rule: str
    from_state: str
    to_state: str
    payload: dict[str, Any]

    def to_record(self) -> dict[str, Any]:
        return {"seq": self.seq, "rule": self.rule, "from": self.from_state,
                "to": self.to_state, "payload": self.payload}

    @classmethod
    def from_record(cls, rec: dict[str, Any], labels: dict[str, str]) -> "TraceEvent":
        """The event of a decoded record.  Each of its ``rule``, ``from`` and
        ``to`` is the equal string ``labels`` already holds, and is added to
        it if new: a reader passes one table per read, so equal labels of one
        trace are one object."""
        try:
            seq, rule, from_state, to_state = rec["seq"], rec["rule"], rec["from"], rec["to"]
        except KeyError as exc:
            raise TraceFormatError(f"event missing field {exc.args[0]!r}") from None
        except TypeError:  # not a mapping: a JSON array, string or number
            raise TraceFormatError(
                f"event must be a JSON object, got {type(rec).__name__}"
            ) from None
        try:  # the table holds only strings, so a label found there is one
            rule, from_state, to_state = labels[rule], labels[from_state], labels[to_state]
        except (KeyError, TypeError):  # a new label, or an unhashable value
            for key, value in (("rule", rule), ("from", from_state), ("to", to_state)):
                if value.__class__ is not str:
                    raise TraceFormatError(f"{key} must be a string, got {type(value).__name__}")
            rule = labels.setdefault(rule, rule)
            from_state = labels.setdefault(from_state, from_state)
            to_state = labels.setdefault(to_state, to_state)
        payload = rec.get("payload")
        if payload.__class__ is not dict:
            if payload is not None or "payload" in rec:
                raise TraceFormatError(
                    f"payload must be a JSON object, got {type(payload).__name__}")
            payload = {}
        # The tuple itself: the NamedTuple constructor would only add a call.
        return _new_tuple(cls, (seq, rule, from_state, to_state, payload))


class Trace:
    """An append-only event list with JSONL persistence."""

    def __init__(self, methodology: str, events: Iterable[TraceEvent] = ()):
        self.methodology = methodology
        self.events: list[TraceEvent] = list(events)

    @cached_property
    def labels(self) -> LabelTable:
        """The label table the monitors verifying this trace share, made
        at first use and dropped with the trace."""
        return LabelTable()

    def emit(
        self,
        rule: str,
        from_state: str,
        to_state: str,
        payload: dict[str, Any] | None = None,
    ) -> TraceEvent:
        ev = _new_tuple(TraceEvent, (len(self.events) + 1, rule, from_state, to_state,
                                     payload or {}))
        self.events.append(ev)
        return ev

    def rules(self) -> list[str]:
        return [e.rule for e in self.events]

    @property
    def final_state(self) -> str | None:
        return self.events[-1].to_state if self.events else None

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, i):
        return self.events[i]

    def to_jsonl(self) -> str:
        """One line per event, newline-terminated: the line, or the error,
        that ``json.dumps(event.to_record(), sort_keys=True)`` gives.  The
        frame is written here, in sorted key order, with each exact ``str``
        label escaped and an exact ``int`` seq written as its repr; the
        payload and any other field value go to the one encoder of this
        trace, ``json.dumps``'s own, in that order, so the first fault in
        that order raises."""
        encoder, join, esc = _chunk_encoder(), "".join, encode_basestring_ascii
        lines = []
        for seq, rule, frm, to, payload in self.events:
            frm = esc(frm) if type(frm) is str else join(encoder(frm, 0))
            payload = join(encoder(payload, 0))
            rule = esc(rule) if type(rule) is str else join(encoder(rule, 0))
            seq = str(seq) if type(seq) is int else join(encoder(seq, 0))
            to = esc(to) if type(to) is str else join(encoder(to, 0))
            lines.append(f'{{"from": {frm}, "payload": {payload}, '
                         f'"rule": {rule}, "seq": {seq}, "to": {to}}}\n')
        return "".join(lines)

    def write_jsonl(self, path: str | Path) -> None:
        """Write ``to_jsonl()`` to ``path`` through ``jsondoc.write_text``: an
        existing file is overwritten in place, keeping its inode and mode."""
        write_text(path, self.to_jsonl())

    @classmethod
    def read_jsonl(cls, path: str | Path, methodology: str = "") -> "Trace":
        """Events of a JSONL file, one record a line.  Lines end at a newline
        only: JSON allows U+2028, U+2029 and U+0085 raw inside a string.

        The text is parsed in place: the decoder's scanner starts at each
        line start in the whole text, and a record that ends exactly at the
        line's end is taken as it is, so no clean line is copied out of the
        text.  Any other line (blank or whitespace-only, padded, CRLF, a
        record over two lines or two on one, or a fault) is cut out and read
        alone: a blank line is skipped, the JSON decoder reads a padded one
        (a carriage return before the newline is JSON whitespace), and a bad
        one raises TraceFormatError naming the file and line.  Equal labels
        (``rule``, ``from`` and ``to``) of one read are one object."""
        try:
            text = read_text(path)
        except JSONDocumentError as exc:
            raise TraceFormatError(f"{path}: {exc}") from None
        events: list[TraceEvent] = []
        append, find, scan = events.append, text.find, _scan
        from_record, labels = TraceEvent.from_record, {}
        start, size = 0, len(text)
        while start < size:
            end = find("\n", start)
            if end < 0:  # the last line has no newline
                end = size
            pos, start = start, end + 1
            try:
                try:  # the common case: one record that fills its line
                    rec, stop = scan(text, pos)
                except (StopIteration, ValueError, RecursionError):
                    stop = -1
                if stop != end:  # blank, padded or faulty: decode_json decides
                    line = text[pos:end]
                    if not line.strip():
                        continue
                    rec = decode_json(line)
                append(from_record(rec, labels))
            except (JSONDocumentError, TraceFormatError) as exc:
                lineno = text.count("\n", 0, pos) + 1
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
        return cls(methodology, events)


class StatusFold:
    """Rebuild a hybrid trace's committed node statuses, one event at a time.

    ``step(event)`` applies the event and returns ``prior``: each node whose
    status the event changed, mapped to its status before (None for a node
    the map did not hold).  ``statuses`` is then the map after the event; it
    is updated in place, so copy it to keep it past the next step.  ``copy``
    gives an independent fold at the same point of the trace.

    A ``statuses`` payload replaces the map (the first event of format 2;
    every event of format 1 or of a hand-made trace), then
    ``status_changes`` patches it.  A delta before any full map, one naming
    a node the map lacks, a node id not written as ``str(int)`` writes it, a
    status other than the JSON integers 0, 1 and 2, an event with neither
    key, or a ``trace_format`` other than 1 or ``TRACE_FORMAT`` raises
    StatusFoldError.  After it raises, the fold is spent: its ``statuses``
    may hold part of the faulty event.

    An event that holds only ``status_changes`` (every event of format 2
    after the first) takes one loop that checks each change and applies it:
    its key must be one the last full map spelt, so it needs no ``int()``.
    Any change that loop cannot take sends the whole delta through
    ``_int_items``, which reads it again and names the fault."""

    __slots__ = ("statuses", "_ids")

    def __init__(self) -> None:
        self.statuses: dict[int, int] | None = None
        # The node id of each key of the last full map, by its checked
        # spelling; replaced, never changed in place.
        self._ids: dict[str, int] = {}

    def copy(self) -> "StatusFold":
        other = StatusFold.__new__(StatusFold)
        statuses = self.statuses
        other.statuses = None if statuses is None else statuses.copy()
        other._ids = self._ids
        return other

    def step(self, ev: TraceEvent) -> dict[int, int | None]:
        p = ev.payload
        changes = p.get("status_changes")
        statuses = self.statuses
        if (changes.__class__ is not dict or statuses is None
                or "statuses" in p or "trace_format" in p):
            return self._step_map(ev)
        prior: dict[int, int | None] = {}
        if not changes:
            return prior
        ids = self._ids
        try:
            for k, v in changes.items():
                # bool is a subclass of int, so the exact class is tested.
                if v.__class__ is not int or not 0 <= v <= 2:
                    raise ValueError
                n = ids[k]  # a node of the last full map, so statuses[n] exists
                old = statuses[n]
                if old != v:
                    prior[n] = old
                    statuses[n] = v
        except (KeyError, ValueError):  # read the delta again: it names the fault
            _patch(statuses, prior, changes, ev.seq)
        return prior

    def _step_map(self, ev: TraceEvent) -> dict[int, int | None]:
        """``step`` for any other event: a full map, a ``trace_format``, a
        delta that is not a dict or comes first, or neither key."""
        p = ev.payload
        version = p.get("trace_format", TRACE_FORMAT)
        if version not in (1, TRACE_FORMAT):
            raise StatusFoldError(ev.seq, f"unsupported trace_format {version!r}")
        full, changes = p.get("statuses"), p.get("status_changes")
        if full is None and changes is None:
            raise StatusFoldError(ev.seq, "no statuses or status_changes")
        statuses = self.statuses
        prior: dict[int, int | None] = {}
        if full is not None:
            new = _int_items(full, ev.seq, "statuses")
            self._ids = dict(zip(full, new))
            if statuses is None:  # the first map: every node is new
                prior = dict.fromkeys(new)
            else:
                for n, s in new.items():
                    old = statuses.get(n)
                    if old != s:
                        prior[n] = old
                for n, old in statuses.items():
                    if n not in new:
                        prior[n] = old
            statuses = self.statuses = new
        if changes is not None:
            if statuses is None:
                raise StatusFoldError(ev.seq, "status_changes before any full status map")
            _patch(statuses, prior, changes, ev.seq)
        return prior


def _patch(
    statuses: dict[int, int], prior: dict[int, int | None], changes: Any, seq: Any
) -> None:
    """Apply ``changes`` to ``statuses`` and record each node's status before
    in ``prior``; a change already applied is skipped."""
    for n, s in _int_items(changes, seq, "status_changes").items():
        old = statuses.get(n)
        if old is None:
            raise StatusFoldError(seq, f"status_changes names unknown node {n}")
        if old == s:
            continue
        if n not in prior:
            prior[n] = old
        elif prior[n] == s:  # a full map and a delta in one event cancel
            del prior[n]
        statuses[n] = s


def fold_statuses(
    events: Iterable[TraceEvent],
) -> Iterator[tuple[TraceEvent, dict[int, int], dict[int, int | None]]]:
    """``StatusFold`` over ``events``: yields ``(event, statuses, prior)``
    after each step, and raises its StatusFoldError."""
    fold = StatusFold()
    for ev in events:
        prior = fold.step(ev)
        yield ev, fold.statuses, prior  # type: ignore[misc]


def _int_items(raw: Any, seq: Any, key: str) -> dict[int, int]:
    """``raw`` read as a status map: its node ids, checked as ``str(int)``
    writes them, mapped to statuses 0, 1 or 2; the first fault raises."""
    items = {}
    try:
        for k, v in raw.items():
            n = int(k)
            if str(n) != k:  # int() also reads " 3", "+3", "03", "1_0" and non-ASCII digits
                raise StatusFoldError(seq, f"{key} key {k!r} must be written {str(n)!r}")
            if v.__class__ is not int or not 0 <= v <= 2:  # not a bool, float or string
                raise StatusFoldError(
                    seq, f"{key} must map node ids to statuses 0, 1 or 2, got {v!r} for {k!r}")
            items[n] = v
    except StatusFoldError:
        raise
    except (AttributeError, TypeError, ValueError):
        raise StatusFoldError(seq, f"{key} must map node ids to statuses 0, 1 or 2") from None
    return items
