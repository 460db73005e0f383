"""A CPU clock normalized to a fixed reference speed.

The host this benchmark was tuned on is a small VM on a shared machine: a
fixed pure-Python loop's CPU time swings by up to 25% from second to
second, as neighbours come and go.  Reps and runs are too short to average
that out, so raw CPU seconds of two runs of identical code can differ by
10-20%.

:class:`NormalizedClock` samples the machine's current speed while the
measured code runs.  Every ``INTERVAL_S`` CPU seconds a ``SIGPROF`` timer
interrupts the process between bytecodes and times a short fixed reference
loop.  Each CPU segment between two samples is scaled by
``REFERENCE_S / (reference time)``, averaged over its two ends.  The loop
touches nothing of the program, and its own CPU is excluded from both
readings, so the program's behaviour and simulated outputs are unchanged.

Normalized seconds are the CPU seconds the same work would take on a
machine where one reference loop takes ``REFERENCE_S``.  That constant is
the median on the 2-vCPU Xeon VM the benchmark was tuned on, so there the
normalized and raw numbers agree on average.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.00154
INTERVAL_S = 0.025


def reference_loop(n: int = 6000) -> int:
    """Fixed interpreter work: dict stores and lookups, integer math."""
    d = {}
    acc = 0
    for i in range(n):
        d[i & 1023] = i
        acc += d.get((i * 7) & 1023, 0)
    return acc


class NormalizedClock:
    """Raw and reference-normalized CPU seconds of the calling thread, from
    thread start (the main thread's is process start)."""

    def __init__(self):
        self.samples = 0
        self._ref_cost = 0.0
        self._raw = 0.0
        self._norm = 0.0
        self._scale = 1.0
        self._last = 0.0
        self._busy = False

    def start(self, sample: bool = True) -> None:
        """Start counting.  CPU spent before (interpreter start-up) counts
        at the speed of the first sample; ``sample=False`` takes only that
        one sample."""
        self._scale = self._sample()
        self._last = time.thread_time()
        self._raw = self._last - self._ref_cost
        self._norm = self._raw * self._scale
        if sample:
            signal.signal(signal.SIGPROF, self._tick)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _sample(self) -> float:
        t0 = time.thread_time()
        reference_loop()
        self._ref_cost = time.thread_time() - t0
        if self._ref_cost <= 0.0:  # below the clock's resolution: keep the last speed
            return self._scale
        self.samples += 1
        return REFERENCE_S / self._ref_cost

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            seg = time.thread_time() - self._last
            scale = self._sample()
            self._raw += seg
            self._norm += seg * 0.5 * (self._scale + scale)
            self._scale = scale
            self._last = time.thread_time()
        finally:
            self._busy = False

    def read(self) -> "tuple[float, float]":
        """(raw, normalized) CPU seconds so far, reference loops excluded."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            seg = time.thread_time() - self._last
            return self._raw + seg, self._norm + seg * self._scale
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})
