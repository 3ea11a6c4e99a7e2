"""In-memory spans around each call into a treeflow layer, and the
statistics the benchmark derives from spans and latency samples.

A span is (name, start, end, parent index, phase).  Spans are recorded from
the benchmark's own code around its calls into the program; nothing inside
``treeflow`` is instrumented.  The phase tells the preflight on the bundled
fixtures apart from the workload's own set-up and timed loop.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Percentiles a per-layer tail may be reported at; the tail is the highest of
# these with at least MIN_BEYOND samples above it.
TAIL_LADDER = (50, 90, 99)
MIN_BEYOND = 10

WORKLOAD_PHASES = ("setup", "run")


class NullTracer:
    """Tracing off: a layer call is a plain call."""

    enabled = False
    phase = "run"

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def record(self, name, start, end):
        pass

    def count(self, name, value):
        pass


class Tracer:
    """Tracing on: keeps every span and count in memory until the run ends."""

    enabled = True

    def __init__(self) -> None:
        self.phase = "run"
        self.spans: list[list] = []
        self.counts: dict[str, list[tuple[str, float]]] = defaultdict(list)
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def record(self, name, start, end):
        """A leaf span timed by the caller."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.phase])

    def count(self, name, value):
        self.counts[name].append((self.phase, value))

    def durations(self, scale) -> dict[str, list[float]]:
        """Seconds per span name, each times ``scale(start)``, from the
        workload's phases; a name the workload never called falls back to
        its preflight spans."""
        own: dict[str, list[float]] = defaultdict(list)
        pre: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _parent, phase in self.spans:
            (own if phase in WORKLOAD_PHASES else pre)[name].append((end - start) * scale(start))
        return {name: own.get(name) or pre[name] for name in set(own) | set(pre)}

    def count_samples(self, name) -> list[float]:
        samples = self.counts.get(name, [])
        own = [v for phase, v in samples if phase in WORKLOAD_PHASES]
        return own or [v for _phase, v in samples]

    def self_seconds(self, phase: str = "run") -> tuple[dict[str, float], float]:
        """Self time per top-level module over one phase, and the summed time
        of that phase's root spans.  Children run one after another, so a
        span's self time is its duration minus its children's durations."""
        self_time = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                self_time[s[3]] -= s[2] - s[1]
        per_module: dict[str, float] = defaultdict(float)
        total = 0.0
        for s, own in zip(self.spans, self_time):
            if s[4] != phase:
                continue
            module = s[0].split(".")[0] if "." in s[0] else "bench"
            per_module[module] += own
            if s[3] is None:
                total += s[2] - s[1]
        return dict(per_module), total


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(sorted_values: list[float]) -> float:
    """The highest ladder percentile with at least MIN_BEYOND samples above
    it; the maximum when no percentile has that many."""
    n = len(sorted_values)
    for p in reversed(TAIL_LADDER):
        if n * (100 - p) / 100.0 >= MIN_BEYOND:
            return percentile(sorted_values, p)
    return sorted_values[-1]


def summary(values: list[float], scale: float = 1.0) -> dict:
    """Median, tail and sample count of ``values`` times ``scale``."""
    xs = sorted(v * scale for v in values)
    return {"p50": percentile(xs, 50), "tail": tail(xs), "n": len(xs)}
