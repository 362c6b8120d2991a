"""Reference clock: the machine's speed, sampled while the jobs run.

The shared machines this benchmark runs on change speed by up to 2x over
seconds to minutes, and every operation of a job slows together.  To take
that out of the figures, an interval timer (SIGALRM every PERIOD_S) runs a
small fixed reference kernel in the worker's main thread, between the
job's own operations, and records how long each run of the kernel took.

`RefClock.now()` is a clock in reference seconds.  It stops while the kernel
runs, and each stretch between two ticks advances it by the stretch's
length times REF_KERNEL_S over the kernel time measured at the tick that
starts the stretch: the time the same work would take with the kernel at
its reference speed.  `raw()` is the same clock in plain seconds.  A later
change to charmarch moves the timings and not the kernel, so a speed-up
shows in full.

The kernel is fixed here and imports nothing from charmarch: small numpy
operations on a (4, 64, 4) field plane (a matrix applied along the
component axis, periodic differences by np.roll) and small dense eigen
and singular value problems, the kinds of work all three workloads do.
The machine's speed changes within a second, so each stretch is scaled by
the one kernel run next to it.  Over 300 s runs of each workload, the
medians of 25 s windows of job times spread 0.02-0.04 ((q3 - q1) / median)
in reference seconds, where the raw ones spread 0.09-0.30, and scaling a
whole job by its median kernel time left 0.05-0.08.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Kernel time on the reference machine (see README.md).
REF_KERNEL_S = 0.001

_rng = np.random.default_rng(0)
_PLANE = _rng.standard_normal((4, 64, 4))
_M = _rng.standard_normal((4, 4))
_SQUARE = [_rng.standard_normal((n, n)) for n in (4, 8, 12)]


def kernel():
    x = _PLANE
    for _ in range(20):
        x = (0.1 * np.einsum("ab,b...->a...", _M, x)
             + 0.5 * (np.roll(x, 1, axis=1) - np.roll(x, -1, axis=1)))
    for a in _SQUARE:
        np.linalg.svd(a)
        np.linalg.eigvals(a)


def calibrate(n):
    """Median of n back-to-back kernel runs, in seconds."""
    times = []
    for _ in range(n):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class RefClock:
    """`now()` in reference seconds and `raw()` in seconds since `start()`,
    both stopped while the kernel runs; `started` is the perf_counter()
    reading at `start()`."""

    def __init__(self):
        self.samples = []
        self._ticks = 0
        self._busy = 0.0
        self._ref = 0.0
        self._rate = 1.0
        self._last = 0.0
        self.started = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self._ref += (t - self._last) * self._rate
        kernel()
        dt = time.perf_counter() - t
        self.samples.append(dt)
        self._rate = REF_KERNEL_S / dt
        self._last = time.perf_counter()
        self._busy += self._last - t
        self._ticks += 1

    def start(self):
        calibrate(20)  # warm up
        self.samples.append(calibrate(1))
        self._rate = REF_KERNEL_S / self.samples[-1]
        self._last = self.started = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    # A tick can land between the reads below; read again if one did.
    def now(self):
        while True:
            ticks = self._ticks
            value = (self._ref
                     + (time.perf_counter() - self._last) * self._rate)
            if ticks == self._ticks:
                return value

    def raw(self):
        while True:
            ticks = self._ticks
            value = time.perf_counter() - self.started - self._busy
            if ticks == self._ticks:
                return value

    def kernel_s(self, first):
        """Median kernel time of samples[first:], in seconds."""
        return statistics.median(self.samples[first:] or self.samples[-1:])
