"""Host-speed probe: a fixed reference kernel timed every few milliseconds.

The benchmark's host is shared: its vCPUs share cores and caches with other
tenants, and the same pass of the same code runs up to 1.5-2x slower in
some minutes than in others (measured on 2 vCPUs of an Intel Xeon host).
Raw wall times therefore measure the neighbours as much as the program.

While a probe is active, a ``SIGALRM`` handler runs ``reference_kernel``
every ``PERIOD_S`` seconds on the benchmark's own thread and times a warm
run of it.  The kernel does not use hlcd4.  It mixes the three kinds of
work the listed workloads do: a Python loop, small numpy draws and stacks
like a search candidate's, and a xor-accumulate and popcount over a
128 KiB array like a chunk of the minimum-weight scan, so it slows down
with the host the way the program does.  A timed interval is then
reported in *host-normalised seconds*:

    (raw interval - probe time inside it) * NOMINAL_S / mean kernel time

where the mean is over the kernel runs inside the interval, widened to the
``MIN_SAMPLES`` runs nearest its middle when it holds fewer.  On a host
whose kernel run takes ``NOMINAL_S``, a normalised second is a wall second;
a change to the program moves the normalised time as it moves the raw one.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from numpy.random import default_rng

PERIOD_S = 0.025
MIN_SAMPLES = 25
# Kernel time at the quiet speed of a 2-vCPU Intel Xeon host, Python 3.11.
NOMINAL_S = 240e-6

_EYE = np.eye(8, dtype=np.uint8)
_WORDS = np.arange(1 << 14, dtype=np.uint64)  # 128 KiB


def reference_kernel() -> int:
    x = 0
    for i in range(1500):
        x += i * i
    for i in range(4):
        rng = default_rng([7, i])
        gen = np.hstack([_EYE, rng.integers(0, 4, size=(8, 4), dtype=np.uint8)])
        x += int((gen ^ 3).sum())
    walk = np.bitwise_xor.accumulate(_WORDS)
    x += int(np.bitwise_count(walk | _WORDS).min())
    return x


class HostProbe:
    """Context manager: times ``reference_kernel`` from a ``SIGALRM``
    handler while active, and normalises intervals afterwards."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []  # the timed kernel run
        self.spent: list[float] = []  # the whole handler
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a tick is dropped
            return
        self._busy = True
        try:
            # The first run brings the kernel's code and data back into the
            # caches after the workload; only the second, warm run is timed.
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            reference_kernel()
            t2 = time.perf_counter()
        finally:
            self._busy = False
        self.durations.append(t2 - t1)
        self.spent.append(t2 - t0)
        self.starts.append(t0)

    def __enter__(self):
        # A first run outside the handler makes every import the kernel
        # needs before a tick can interrupt an import of the program.
        reference_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        if j - i < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            i = max(0, mid - MIN_SAMPLES // 2)
            j = min(len(self.starts), i + MIN_SAMPLES)
            i = max(0, j - MIN_SAMPLES)
        return i, j

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean kernel time around [t0, t1] over ``NOMINAL_S``."""
        i, j = self._window(t0, t1)
        if i == j:
            raise RuntimeError("the host probe recorded no kernel runs")
        return statistics.fmean(self.durations[i:j]) / NOMINAL_S

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Time the probe itself spent inside [t0, t1]."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return sum(self.spent[i:j])

    def seconds(self, t0: float, t1: float) -> float:
        """Host-normalised duration of the interval [t0, t1] of this thread."""
        return (t1 - t0 - self.probe_seconds(t0, t1)) / self.slowdown(t0, t1)

    def overall_slowdown(self) -> float:
        return statistics.fmean(self.durations) / NOMINAL_S if self.durations else 0.0
