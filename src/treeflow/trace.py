"""Trace events emitted by the state machines and the store traversal.

One event per fired transition rule.  Events chain: ``to_state`` of event n
equals ``from_state`` of event n+1.  Hybrid-machine events additionally carry
the lexicographic measure before and after the step plus a committed-status
snapshot, which is what the verification monitors consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable


class TraceFormatError(ValueError):
    """A persisted trace line that is not a valid event record."""


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    rule: str
    from_state: str
    to_state: str
    payload: dict[str, Any] = field(default_factory=dict)
    measure_pre: tuple[int, int, int, int] | None = None
    measure_post: tuple[int, int, int, int] | None = None

    def to_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "seq": self.seq,
            "rule": self.rule,
            "from": self.from_state,
            "to": self.to_state,
        }
        if self.measure_pre is not None:
            rec["measure_pre"] = list(self.measure_pre)
        if self.measure_post is not None:
            rec["measure_post"] = list(self.measure_post)
        rec["payload"] = self.payload
        return rec

    @classmethod
    def from_record(cls, rec: dict[str, Any]) -> "TraceEvent":
        try:
            seq, rule, from_state, to_state = rec["seq"], rec["rule"], rec["from"], rec["to"]
        except KeyError as exc:
            raise TraceFormatError(f"event missing field {exc.args[0]!r}") from None
        except TypeError:  # not a mapping: a JSON array, string or number
            raise TraceFormatError(
                f"event must be a JSON object, got {type(rec).__name__}"
            ) from None

        def _measure(key: str) -> tuple[int, int, int, int] | None:
            raw = rec.get(key)
            return None if raw is None else tuple(raw)  # type: ignore[return-value]

        return cls(
            seq=seq,
            rule=rule,
            from_state=from_state,
            to_state=to_state,
            payload=rec.get("payload", {}),
            measure_pre=_measure("measure_pre"),
            measure_post=_measure("measure_post"),
        )


class Trace:
    """An append-only event list with JSONL persistence."""

    def __init__(self, methodology: str, events: Iterable[TraceEvent] = ()):
        self.methodology = methodology
        self.events: list[TraceEvent] = list(events)

    def emit(
        self,
        rule: str,
        from_state: str,
        to_state: str,
        payload: dict[str, Any] | None = None,
        measure_pre: tuple[int, int, int, int] | None = None,
        measure_post: tuple[int, int, int, int] | None = None,
    ) -> TraceEvent:
        ev = TraceEvent(
            seq=len(self.events) + 1,
            rule=rule,
            from_state=from_state,
            to_state=to_state,
            payload=payload or {},
            measure_pre=measure_pre,
            measure_post=measure_post,
        )
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

    def write_jsonl(self, path: str | Path) -> None:
        lines = [json.dumps(e.to_record(), sort_keys=True) for e in self.events]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def read_jsonl(cls, path: str | Path, methodology: str = "") -> "Trace":
        events = []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                events.append(TraceEvent.from_record(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
        return cls(methodology, events)


def check_chaining(trace: Trace) -> int | None:
    """Index (seq) of the first event whose from_state breaks the chain."""
    for prev, cur in zip(trace.events, trace.events[1:]):
        if cur.from_state != prev.to_state:
            return cur.seq
    return None
