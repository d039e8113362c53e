"""Host-speed probe: report timings at a fixed reference speed.

The machines this benchmark runs on share cores with other tenants, and
their speed drifts by up to 2x over tens of seconds: a fixed pure-Python
loop, timed in 5-second windows, took between 108 and 197 ms on one host
within two minutes, and five 15-second runs of one workload spread their
median latency by 20-40% (quartile distance over median) for that reason
alone.  Every timing metric of a run moves together with that drift.

So each run times a fixed reference loop (:func:`probe`) every
:data:`INTERVAL` seconds of the timed phase, and every timing is reported
as ``raw × REFERENCE_S / local probe time``, where the local probe time is
the median of the probes taken within :data:`WINDOW` seconds of the timing:
the time the operation would have taken on a host that runs the probe in
exactly :data:`REFERENCE_S`.  A faster program reads faster either way; a
slower host does not.  The raw figures are printed beside the normalised
ones.  Timed phases also run on this reference clock: a closed loop runs
for ``--seconds`` of it, and an open loop offers its rate per reference
second.  A slow spell then stretches the phase instead of shortening the
query stream it gets through, or raising the service's utilisation (which
decides how often a write meets a running read).
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable, List

#: Probe time of the reference host.
REFERENCE_S = 0.001
#: Seconds between probes while a timed phase runs.
INTERVAL = 0.1
#: Probes within this many seconds of a timing set its speed factor.
WINDOW = 1.0
#: Probes that set the speed of the clock a timed phase runs against.
RECENT = 5


def probe() -> int:
    """A fixed pure-Python workload of set, dict and call traffic (~1 ms)."""
    seen = set()
    counts = {}
    for index in range(5000):
        key = (index * 7919) % 1013
        seen.add(key)
        counts[key] = counts.get(key, 0) + 1
    return len(seen) + len(counts)


class HostSpeed:
    """Probe timings of one run and the normalisation they imply."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 run_probe: Callable[[], object] = probe):
        self.clock = clock
        self.run_probe = run_probe
        self.starts: List[float] = []
        self.durations: List[float] = []

    def sample(self) -> None:
        started = self.clock()
        self.run_probe()
        self.starts.append(started)
        self.durations.append(self.clock() - started)

    def maybe_sample(self) -> None:
        """Probe if :data:`INTERVAL` has passed since the last probe."""
        if not self.starts or self.clock() - self.starts[-1] >= INTERVAL:
            self.sample()

    def probing_sleep(self, seconds: float) -> None:
        """Sleep for an open loop's slack, probing first when it is due."""
        deadline = self.clock() + seconds
        if seconds > 4 * REFERENCE_S:
            self.maybe_sample()
        remaining = deadline - self.clock()
        if remaining > 0:
            time.sleep(remaining)

    def local_probe(self, at: float) -> float:
        """Median probe time within :data:`WINDOW` of ``at`` (all, if none)."""
        if not self.durations:
            raise ValueError("no host-speed probes were taken")
        low = bisect.bisect_left(self.starts, at - WINDOW)
        high = bisect.bisect_right(self.starts, at + WINDOW)
        return statistics.median(self.durations[low:high] or self.durations)

    def normalise(self, at: float, seconds: float) -> float:
        """``seconds`` measured at time ``at``, scaled to the reference host."""
        return seconds * REFERENCE_S / self.local_probe(at)

    def normalise_span(self, start: float, end: float) -> float:
        """The length of ``[start, end]``, scaled piece by piece."""
        total, step = 0.0, WINDOW / 2
        while start < end:
            piece = min(step, end - start)
            total += self.normalise(start + piece / 2, piece)
            start += piece
        return total

    def recent_scale(self) -> float:
        """``REFERENCE_S`` over the median of the last few probes."""
        return REFERENCE_S / statistics.median(self.durations[-RECENT:])

    def pace(self) -> float:
        """Wall seconds per reference second, from the last few probes."""
        return 1.0 / self.recent_scale()

    def median_probe(self) -> float:
        return statistics.median(self.durations)
