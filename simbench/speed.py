"""Machine-speed probe: express host times at a fixed reference speed.

On a shared host the CPU itself runs faster or slower for tens of
seconds at a time: a fixed pure-Python loop timed once a second drifts
by +-20% with 10-20 s periods, process CPU time drifts with it, and a
calibration loop run before a measurement does not track the
measurement.  A probe interleaved with the measurement does: every
``interval`` seconds a timer signal interrupts the process and times
``probe_loop``; the median of the samples taken during a phase gives
the machine's speed during that phase.  A phase's wall time multiplied
by ``REFERENCE_S / median`` is its time at the reference speed.

On a shared 2-vCPU container (Python 3.11) the loop takes 180-280 us;
one probe every 25 ms costs under 1% of the run.  Across seeds of one
workload this cut the quartile spread of ``cluster-replay``'s run time
from 0.14-0.22 to 0.03-0.04 of its median (ten seeds each).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional

#: Nominal duration of one ``probe_loop``: the reference speed.
REFERENCE_S = 200e-6
#: Iterations of the probe loop.
PROBE_ITERATIONS = 3000


def probe_loop() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Samples ``probe_loop`` on a timer signal while it runs."""

    def __init__(self, interval: float = 0.025):
        self.interval = interval
        self.samples: List[float] = []
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        self.samples.append(probe_loop())

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        """Position to pass as ``since`` when a phase starts."""
        return len(self.samples)

    def factor(self, since: int, until: Optional[int] = None) -> float:
        """Reference speed over the speed of samples ``[since, until)``.

        A phase too short to catch a timer sample is probed on the spot.
        """
        window = self.samples[since:until]
        if not window:
            window = [probe_loop() for _ in range(3)]
        return REFERENCE_S / statistics.median(window)
