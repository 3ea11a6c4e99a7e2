"""Host-speed calibration: a fixed reference kernel timed between the
workload's chunks and set-ups, so every timing can be reported at one
reference speed.

The host is shared.  Its CPU runs the same code up to about twice as slow
when other tenants contend for it, and the slow spells last from seconds to
minutes, so two runs of the same code minutes apart can differ by more than
any useful bound.  The reference kernel is benchmark code that never changes
with the program; it is timed in short probes spread over the run in
proportion to the workload's own time, so the probes see the same host
states as the workload.  The factor for a stretch of work is
REFERENCE_PROBE_S divided by the median of the probes nearest to it, and
the stretch's reported time is its measured time times that factor: the
time the work would take on a host where one probe takes REFERENCE_PROBE_S.
The host's speed changes within a run, so each stretch is scaled by the
probes taken around it rather than by one factor for the whole run.  A
change to the program moves the measured time and leaves the probes alone,
so it moves the reported figure by the same share.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from pathlib import Path

# About one probe's time on the host the benchmark was written on (2-vCPU
# Intel Xeon VM, CPython 3.11.7), where a run's median probe took 3.0 to
# 3.9 ms.  It only sets the scale of the reported figures; it never changes
# a comparison between two runs.
REFERENCE_PROBE_S = 0.0035
# A probe follows the first stretch to end PROBE_EVERY_S or more of timed
# work after the last probe; this adds about 6% to the run's wall time.
PROBE_EVERY_S = 0.06
# A stretch is scaled by this many probes on each side of it, about half a
# second of work each way; the host's states last a second or more.
NEIGHBOURS = 8
_KEYS = 2000
# The document the kernel writes and reads back: 40 hierarchy-like rows.
_DOC = [{"id": i, "name": f"n{i}", "parent_id": i // 3 or None, "level": 1 + i // 10}
        for i in range(40)]


def reference_kernel(table: dict, scratch: list, path: Path) -> int:
    """Work of the kinds the program does: dict reads and writes, list
    appends, int arithmetic and string formatting, then a JSON document
    written to ``path`` and read back.  The file round trip is there because
    the pipelines write and read a trace file in every op, and those system
    calls slow down under contention by another share than pure
    interpreter work."""
    acc = 0
    get = table.get
    for i in range(_KEYS):
        k = (i * 40503) & 0x3FF
        v = get(k, 0) + i
        table[k] = v & 0xFFFF
        scratch.append(v ^ k)
        if len(scratch) >= 32:
            acc += sum(scratch) & 0xFF
            scratch.clear()
        acc += len(f"{k}:{v}")
    path.write_text(json.dumps(_DOC))
    return acc + len(json.loads(path.read_text()))


class HostProbe:
    """Times the reference kernel between the stretches of timed work
    (set-ups and chunks) of one loop, and scales each stretch by the probes
    nearest to it."""

    def __init__(self, path: Path) -> None:
        self.path = path  # the kernel's file, inside the run's temporary directory
        self.samples: list[float] = []
        self.starts: list[float] = []  # each stretch's start, perf_counter seconds
        self._marks: list[int] = []  # probes taken before each stretch
        self._since = 0.0
        self._table: dict = {}
        self._scratch: list = []

    def stretch(self, start: float, end: float) -> int:
        """Record one stretch of timed work, then probe once if PROBE_EVERY_S
        of work has passed since the last probe.  Never more than once in a
        row: a second pass would find the kernel warm in the caches, while
        every other probe finds it evicted by the workload.  Returns the
        stretch's index for factor()."""
        self.starts.append(start)
        self._marks.append(len(self.samples))
        self._since += end - start
        if self._since >= PROBE_EVERY_S or not self.samples:
            self._since = 0.0
            t0 = time.perf_counter()
            reference_kernel(self._table, self._scratch, self.path)
            self.samples.append(time.perf_counter() - t0)
        return len(self.starts) - 1

    def factor(self, k: int) -> float:
        """Reported time ÷ measured time for stretch ``k``: from the median
        of the NEIGHBOURS probes before it and as many after it."""
        i = self._marks[k]
        return REFERENCE_PROBE_S / _median(self.samples[max(0, i - NEIGHBOURS):i + NEIGHBOURS])

    def factor_at(self, t: float) -> float:
        """The factor of the stretch running at perf_counter time ``t``; the
        first stretch's before any stretch began."""
        return self.factor(max(0, bisect_right(self.starts, t) - 1))

    def overall(self) -> float:
        """The factor from every probe of the loop."""
        return REFERENCE_PROBE_S / _median(self.samples)


def _median(values: list[float]) -> float:
    xs = sorted(values)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2
