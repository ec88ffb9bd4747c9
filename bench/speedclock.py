"""A clock that runs at the reference speed of the machine.

The benchmark runs on a small VM that shares its host.  Each vCPU swings
between a fast and a slow state (about 2x apart) for seconds to minutes
at a time, independently of the other vCPU, with no steal time to show
for it.  Wall times of the same work then spread far wider between runs
than any useful regression bound, and best-of-N does not help when a
slow state lasts the whole run.

:class:`SpeedClock` measures that speed while the benchmark runs.  Every
``TICK_S`` seconds a ``SIGALRM`` handler times :func:`kernel_time`, a
fixed pure-Python loop, on the core the op runs on.  The package spends
its time in the interpreter and in numpy calls on 4x4 and 2x2 matrices,
whose cost is mostly call overhead.  Against ``seed_sweep`` ops, this
kernel tracked the swings better than a loop of 4x4 numpy products or a
mix of the two; on ``ideal16k`` ops all three did equally well.

The clock advances by wall time scaled with ``REFERENCE_KERNEL_S /
kernel time``, so it reads the seconds the work would have taken had the
kernel run in ``REFERENCE_KERNEL_S``.  Time spent in the handler is left
out.  The kernel is part of the benchmark, not of the package, so a
change to the package moves these times exactly as it moves wall time at
a fixed machine speed.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Kernel time on a quiet core of the 2-vCPU reference VM (2.1 GHz).
REFERENCE_KERNEL_S = 0.0018
#: Interval between speed samples; the kernel adds about 1-2 % of it.
TICK_S = 0.2
KERNEL_STEPS = 30000


def kernel_time() -> float:
    """Wall time of a fixed loop of integer arithmetic in the interpreter."""
    start = time.perf_counter()
    s = 0
    for i in range(KERNEL_STEPS):
        s += i * i % 7
    return time.perf_counter() - start


def speed_scale(samples: int = 5) -> float:
    """Reference seconds per wall second right now, from a median of kernel samples."""
    kernel_time()
    return REFERENCE_KERNEL_S / statistics.median(kernel_time() for _ in range(samples))


class SpeedClock:
    """Seconds at the reference speed; read with :meth:`now` between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self._ref = 0.0
        self._last = 0.0
        self._scale = 1.0
        self.scales: list[float] = []

    def start(self) -> None:
        self._scale = speed_scale()
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self._ref += (t - self._last) * self._scale
        self._scale = REFERENCE_KERNEL_S / kernel_time()
        self.scales.append(self._scale)
        self._last = time.perf_counter()

    def now(self) -> float:
        return self._ref + (time.perf_counter() - self._last) * self._scale

    def slowdown(self) -> float:
        """Median wall seconds per reference second over the ticks so far."""
        return 1.0 / statistics.median(self.scales) if self.scales else 1.0 / self._scale
