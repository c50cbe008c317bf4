"""A clock that reads seconds of work at a fixed reference machine speed.

The cores of the machine this benchmark was written on are shared: for
spells of seconds to minutes, the same Python code runs up to twice as
slow as at other times, and no part of that shows as steal or as lost
CPU time.  A run's wall-clock figures then say more about the
neighbours than about the program.  ``ProbeClock`` divides that out.
Every ``PERIOD_S`` a timer signal runs ``probe``, a fixed piece of
interpreter work, and times it.  Until the next sample the clock
advances at ``REFERENCE_PROBE_S`` over the median of the last ``WINDOW``
probe times, so a second on this clock is the time the program would
take where the probe takes ``REFERENCE_PROBE_S`` (about its fastest time
on the development machine).  The median keeps one disturbed sample
from setting the rate of a short call.  The probe's own time is left
out.
"""

from __future__ import annotations

import collections
import signal
import statistics
import time

import reference

REFERENCE_PROBE_S = 300e-6
PERIOD_S = 0.04
WINDOW = 9


def probe() -> None:
    """Three exhaustive searches over letter tables: ``{ab = ba}`` never
    separates ``ab = ba``, so all 16 pairs of tables on two points are
    tried.  Tuples built by generators, dict lookups and recursion, on
    the benchmark's own code; the slow spells do not slow all code
    alike, and of the probes tried this one followed every workload
    best (see bench/README.md)."""
    for _ in range(3):
        reference.separating_model([("ab", "ba")], ("ab", "ba"), 2)


class ProbeClock:
    """Use as a context manager; ``now()`` is valid inside it.

    It owns SIGALRM and the real-time interval timer while active.
    """

    def __init__(self):
        self.samples = 0
        self._value = 0.0
        self._since = 0.0
        self._rate = 1.0
        self._recent: collections.deque[float] = collections.deque(maxlen=WINDOW)
        self._busy = False
        self._saved = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self._value += (start - self._since) * self._rate
        probe()
        end = time.perf_counter()
        self._recent.append(end - start)
        self._rate = REFERENCE_PROBE_S / statistics.median(self._recent)
        self._since = end
        self.samples += 1
        self._busy = False

    def now(self) -> float:
        while True:
            seen = self.samples
            value = self._value + (time.perf_counter() - self._since) * self._rate
            if seen == self.samples:
                return value

    def __enter__(self) -> "ProbeClock":
        self._since = time.perf_counter()
        for _ in range(WINDOW):  # start with a full window
            self._sample()
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
