"""Sample statistics and the open-loop request schedule of the benchmark.

Percentiles use the nearest-rank definition: the p-th percentile of ``n``
sorted samples is the sample at rank ``ceil(p / 100 * n)``, so exactly
``n - rank`` samples lie beyond it.  A percentile is only reported when at
least :data:`MIN_BEYOND` samples lie beyond it; :func:`tail_percentile`
names the highest such level for a sample count.
"""

from __future__ import annotations

import math
import time
from typing import Callable, List, Optional, Sequence

#: A percentile needs this many samples beyond it to be reported.
MIN_BEYOND = 10

#: The percentile levels the benchmark may report, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(count: int, level: float) -> int:
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in binary.
    return min(count, max(1, math.ceil(round(level * count / 100.0, 9))))


def percentile(samples: Sequence[float], level: float) -> float:
    """Nearest-rank ``level``-th percentile of ``samples`` (non-empty)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(len(samples), level) - 1]


def samples_beyond(count: int, level: float) -> int:
    """How many of ``count`` samples lie beyond the ``level``-th percentile."""
    return count - _rank(count, level) if count > 0 else 0


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder level with at least :data:`MIN_BEYOND` samples beyond it."""
    for level in PERCENTILE_LADDER:
        if samples_beyond(count, level) >= MIN_BEYOND:
            return level
    return None


class Timed:
    """One open-loop operation: when it was due, sent and completed."""

    __slots__ = ("due", "sent", "done", "outcome")

    def __init__(self, due: float, sent: float, done: float, outcome):
        self.due = due
        self.sent = sent
        self.done = done
        self.outcome = outcome

    @property
    def latency(self) -> float:
        """Completion minus *due* time: waits behind a stall count in full."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """How late the generator sent the operation."""
        return self.sent - self.due


def run_open_loop(
    operation: Callable[[int], object],
    gaps: Sequence[float],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    pace: Callable[[], float] = lambda: 1.0,
) -> List[Timed]:
    """Issue ``operation(i)`` for each gap, ``gaps[i]`` after the previous one was due.

    Operation ``i`` is due on schedule whatever happened to the ones before
    it; ``pace()`` stretches each gap (wall seconds per second of the
    schedule's own clock).  A caller with one connection sends an operation
    only after the previous one returned, so a slow reply delays the next
    send; timing from the due time (:attr:`Timed.latency`) charges that wait
    to every operation queued behind it, which timing from the send would
    hide.
    """
    records: List[Timed] = []
    due = clock()
    for index, gap in enumerate(gaps):
        due += gap * pace()
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        outcome = operation(index)
        records.append(Timed(due, sent, clock(), outcome))
    return records
