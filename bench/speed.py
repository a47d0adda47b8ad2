"""Machine-speed gauge: a fixed pure-Python probe timed around and during jobs.

On a shared 2-core Xeon VM (2.1 GHz) whose cores other tenants also load,
speed wanders: a fixed loop's time, CPU time included, switches between
about 1x and 1.8x within seconds and stays slow for minutes at a time, while
steal time stays near zero and no hardware counters are exposed.
Times from runs minutes apart are comparable only after taking that drift
out. So every timed item is scaled by the probe's nominal time over the
median of the probe times taken while the item ran:

    normalized = raw * PROBE_NOMINAL_S / median(probe times)

The probe runs three times right before the item and three times right after
it. During a job, a ``SIGALRM`` interval timer also runs it every
``EVERY_S`` seconds, starting ``FIRST_S`` seconds in. The time the probe
takes inside the job is subtracted from the job's times. With samples
spread through a two-second job, a repeated job's normalized time varies
about half as much as with samples only at its two ends. The probe shares no
code with qtorus, so a change to the program moves normalized and raw times
alike.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from math import gcd

# Probe time on that VM (Python 3.11) at its faster, quiet speed. A fixed
# scale, never re-tuned.
PROBE_NOMINAL_S = 0.00055
FIRST_S = 0.01
EVERY_S = 0.02


def _probe_work() -> int:
    """Integer matrix products, gcds and tuple hashing, the mix qtorus runs."""
    a = [[(i * 7 + j * 3) % 11 - 5 for j in range(6)] for i in range(6)]
    acc = 0
    for _ in range(15):
        b = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in a]
        acc += sum(gcd(x, 12) for r in b for x in r)
        acc += len({tuple(tuple(r) for r in b)})
    return acc


def probe_s() -> float:
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


class SpeedGauge:
    """Speed factor of one measured item at a time, plus every probe of the run."""

    def __init__(self):
        self.samples: list[float] = []  # every probe time of the run, for the record
        self._item: list[float] = []
        self.spent = 0.0  # probe time inside the current item

    def _sample(self) -> None:
        t = probe_s()
        self._item.append(t)
        self.samples.append(t)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self.spent += time.perf_counter() - start

    @contextmanager
    def measure(self, during: bool = True):
        """Probe around one item; ``during`` also probes inside it.

        Probing inside runs in this process, so it suits work done here (a
        job), not a child process the parent only waits for.
        """
        self._item, self.spent = [], 0.0
        for _ in range(3):
            self._sample()
        if during:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, FIRST_S, EVERY_S)
        try:
            yield self
        finally:
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        for _ in range(3):
            self._sample()

    def factor(self) -> float:
        """Nominal over the median probe time of the last measured item."""
        return PROBE_NOMINAL_S / statistics.median(self._item)

