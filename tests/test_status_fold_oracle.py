"""The status fold against its predecessor, kept here as the oracle: on every
sequence of events both folds return the same ``prior`` and reach the same
``statuses`` (in the same order) after each event, or both raise the same
StatusFoldError, text and seq, at the same event.  The sequences mix full
maps and deltas with node ids spelt other than ``str(int)`` writes them,
unknown nodes, statuses that are not the integers 0, 1 and 2, maps that are
not dicts, and events that carry both keys."""

from typing import Any

from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeflow.trace import TRACE_FORMAT, StatusFold, StatusFoldError, TraceEvent

# -- the status fold before its one-loop delta path, kept as the oracle --------------


def _int_items(raw: Any, seq: Any, key: str) -> list[tuple[int, int]]:
    items = []
    try:
        for k, v in raw.items():
            n = int(k)
            if str(n) != k:  # int() also reads " 3", "+3", "03", "1_0" and non-ASCII digits
                raise StatusFoldError(seq, f"{key} key {k!r} must be written {str(n)!r}")
            if v.__class__ is not int or not 0 <= v <= 2:  # not a bool, float or string
                raise StatusFoldError(
                    seq, f"{key} must map node ids to statuses 0, 1 or 2, got {v!r} for {k!r}")
            items.append((n, v))
    except StatusFoldError:
        raise
    except (AttributeError, TypeError, ValueError):
        raise StatusFoldError(seq, f"{key} must map node ids to statuses 0, 1 or 2") from None
    return items


class OracleFold:
    def __init__(self) -> None:
        self.statuses: dict[int, int] | None = None
        self._ids: dict[str, int] = {}

    def step(self, ev: TraceEvent) -> dict[int, int | None]:
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
            new = dict(_int_items(full, ev.seq, "statuses"))
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
            ids = self._ids
            items = []
            try:
                for k, v in changes.items():
                    if v.__class__ is not int or not 0 <= v <= 2:
                        raise ValueError
                    items.append((ids[k], v))
            except (AttributeError, KeyError, TypeError, ValueError):
                items = _int_items(changes, ev.seq, "status_changes")
            for n, s in items:
                old = statuses.get(n)
                if old is None:
                    raise StatusFoldError(ev.seq, f"status_changes names unknown node {n}")
                if old == s:
                    continue
                if n not in prior:
                    prior[n] = old
                elif prior[n] == s:  # a full map and a delta in one event cancel
                    del prior[n]
                statuses[n] = s
        return prior


# -- drawn events ---------------------------------------------------------------------

NODES = (1, 2, 3, 4)
# Node ids as the writer spells them, misspelt ones int() still reads, an id
# no map holds, and keys of other types.
KEYS = st.sampled_from([str(n) for n in NODES] + ["01", "+1", " 1", "1_0", "9", 1, 2.0])
STATUSES = st.sampled_from([0, 1, 2, True, 1.0, "1", 3, -1, None])
VALID = st.dictionaries(st.sampled_from([str(n) for n in NODES]), st.sampled_from([0, 1, 2]))
FAULTY = st.dictionaries(KEYS, STATUSES, min_size=1, max_size=4) | st.sampled_from([[], "1", 7])


@st.composite
def payloads(draw) -> dict:
    """Mostly a delta; one in ten events a full map, both keys or neither,
    one in eight maps faulty and one in ten events with a ``trace_format``."""
    def status_map():
        return draw(FAULTY if draw(st.integers(0, 7)) == 0 else VALID)

    kind = draw(st.sampled_from(["delta"] * 7 + ["full", "both", "neither"]))
    p: dict = {}
    if kind in ("full", "both"):
        p["statuses"] = status_map()
    if kind in ("delta", "both"):
        p["status_changes"] = status_map()
    if draw(st.integers(0, 9)) == 0:
        p["trace_format"] = draw(st.sampled_from([1, 2, 3, True, None]))
    return p


@st.composite
def sequences(draw) -> list[TraceEvent]:
    """A full map first, as the writer puts it, in all but one in eight."""
    first = payloads() if draw(st.integers(0, 7)) == 0 else st.builds(
        lambda m: {"statuses": m, "trace_format": TRACE_FORMAT}, VALID)
    payloads_ = [draw(first), *draw(st.lists(payloads(), max_size=10))]
    return [TraceEvent(seq, "PD2", "S1(1)", "S2(1)", p)
            for seq, p in enumerate(payloads_, start=1)]


def outcome(fold, ev: TraceEvent):
    try:
        prior = fold.step(ev)
    except StatusFoldError as err:
        return "raised", str(err), err.seq, err.detail
    statuses = fold.statuses
    return "stepped", list(prior.items()), statuses if statuses is None else list(statuses.items())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(events=sequences())
@example(events=[
    TraceEvent(1, "PD1", "S0", "S1(1)", {"statuses": {"1": 0, "2": 0}, "trace_format": 2}),
    TraceEvent(2, "PD2", "S1(1)", "S2(1)", {"status_changes": {"1": 2, "9": 1}}),
])
@example(events=[
    TraceEvent(1, "PD1", "S0", "S1(1)", {"statuses": {"1": 0, "2": 1}, "trace_format": 2}),
    TraceEvent(2, "PD2", "S1(1)", "S2(1)", {"statuses": {"1": 2, "2": 1},
                                            "status_changes": {"1": 0, "2": 2}}),
])
@example(events=[
    TraceEvent(1, "PD1", "S0", "S1(1)", {"statuses": {"1": 0}, "trace_format": 2}),
    TraceEvent(2, "PD2", "S1(1)", "S2(1)", {"status_changes": {"1": 1, "01": True}}),
])
def test_fold_steps_like_the_oracle(events):
    fold, oracle = StatusFold(), OracleFold()
    for ev in events:
        got, want = outcome(fold, ev), outcome(oracle, ev)
        assert got == want, ev
        if got[0] == "raised":  # a fold that raised is spent
            break
