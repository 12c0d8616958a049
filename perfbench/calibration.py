"""CPU-speed calibration for the end-to-end timings.

On a shared host the speed of one CPU changes by up to 2x within seconds, and
CPU time tracks wall time, so the slowdown is the core's and not scheduling
(NOTES.md has the measurements). The benchmark therefore times a fixed
kernel -- a Python loop of tiny numpy products, the shape of the simulator's
own hot code -- on the CPU doing the work, and expresses every timing in
*reference seconds*: wall seconds scaled by ``REF_KERNEL_S / kernel time``.
A reference second is the time in which the kernel runs once per
``REF_KERNEL_S``; on a CPU that runs it in exactly that time, reference and
wall seconds agree.

The kernel is timed in thread CPU time, so time the thread spends waiting
for a CPU or for the interpreter lock is not counted as slowness.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 200e-6
SAMPLE_PERIOD_S = 0.02

_X = np.ones(3)


def kernel_seconds() -> float:
    """Thread CPU seconds of one run of the calibration kernel."""
    t0 = time.thread_time()
    acc = 0.0
    for _ in range(100):
        acc += float(_X @ _X)
    return time.thread_time() - t0


def speed_factor(samples: list[float]) -> float:
    """Reference seconds per wall second while ``samples`` were taken.

    Work done at a speed proportional to 1/kernel-time adds up through the
    harmonic mean of the kernel times.
    """
    return REF_KERNEL_S / statistics.harmonic_mean(samples)


class SpeedSampler:
    """Times the kernel every ``SAMPLE_PERIOD_S`` on the main thread (SIGALRM)
    while the context is open. Costs about 1% of the thread's time."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append(kernel_seconds())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
