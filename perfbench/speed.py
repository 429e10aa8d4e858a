"""Wall times scaled to a reference machine speed.

The 2-core sandboxes this benchmark runs in drift in speed by up to 40 %
over tens of seconds: a fixed loop takes anywhere from 6 to 10 ms as
neighbours come and go, and raw wall times of whole runs spread as much.  So a ``Speedometer``
times a fixed pure-Python loop (``_spin``) from a SIGALRM handler every
``SAMPLE_EVERY_S``, inside jobs too, and every measured time is scaled by
``REFERENCE_SPIN_S`` over the mean spin time around it: a job that took 10 s
while the spin ran 25 % slower than the reference reports 8 reference
seconds.

Averaged over a few seconds, the spin's time and the time of library jobs
move together (correlation 0.98 for words, verify, Felsch and grid jobs, with
a log-log slope of 0.8 to 0.9); a spin that also reads a large array tracks
them worse (slope 0.4).  The spins of a window of WINDOW_S are averaged, so
the scale follows the drift without adding the spin's own jitter.  It cannot
remove the jitter of single jobs (about 10 % from one run of a job to the
next), which only more samples per run reduce.  The spin is benchmark code,
so no change to the library moves it; the handler's own time is subtracted
from the job it interrupted.
"""

from __future__ import annotations

import signal
import time

SAMPLE_EVERY_S = 0.1
WINDOW_S = 2.0             # spins this long before a job also describe it
REFERENCE_SPIN_S = 0.0007  # median spin time of a 2-core Xeon sandbox


def _spin() -> int:
    s = 0
    for i in range(10_000):
        s += i * i
    return s


class Speedometer:
    def __init__(self):
        self.times: list[float] = []      # midpoint of each spin
        self.spins: list[float] = []      # its duration
        self.stolen = 0.0                 # total time inside the handler

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _spin()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.spins.append(t1 - t0)
        self.stolen += t1 - t0

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, net: float) -> float:
        """A duration that began at t0 and has just ended, net of the
        handler, in reference seconds: scaled by the spins taken from
        WINDOW_S before t0 until now."""
        total, n = 0.0, 0
        i = len(self.times) - 1
        while i >= 0 and (n == 0 or self.times[i] >= t0 - WINDOW_S):
            total += self.spins[i]
            n += 1
            i -= 1
        return net * REFERENCE_SPIN_S * n / total
