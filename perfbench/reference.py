"""A fixed unit of plain-Python work that measures the host's speed.

The host the benchmark was written on (2 vCPUs under KVM on a shared Xeon)
switches between states up to 2x apart in speed, for spells of seconds
to minutes; CPU time tracks wall time, so the vCPU is slowed rather than
descheduled. Runs of the same workload made minutes apart differed by
up to 30 % in seconds per call. The runner therefore samples this
kernel's duration all through a run, during calls as well as between
them, and divides each call's time by the kernel's time around it (see
README, Noise). The kernel is benchmark code only: it does not change
when permtaylor does.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

_N = 7
_ROWS = [[complex(((3 * i + 5 * j) % 7 - 3) / 10, ((i * j) % 5 - 2) / 10) for j in range(_N)]
         for i in range(_N)]


def kernel() -> complex:
    """The permanent of a fixed 7 x 7 complex matrix by Ryser's formula
    with Gray-code updates: complex arithmetic on Python lists, the kind
    of work the engine's minor sums do. About 0.2 ms on the host above,
    0.35 ms when it interrupts a call.

    Of the kernels tried this one tracked the CLI best: over logs of both
    workloads its speed and the CLI's had correlations of 0.88 and 0.97
    and a log-log slope of 0.91 to 0.95. A miniature CLI call (argparse,
    JSON, numpy and a smaller Ryser) had a slope of 0.75 on matrix-approx.
    """
    n = _N
    sums = [0j] * n
    total = 0j
    prev = 0
    for g in range(1, 1 << n):
        gray = g ^ (g >> 1)
        bit = gray ^ prev
        prev = gray
        j = bit.bit_length() - 1
        sign = 1 if gray & bit else -1
        for i in range(n):
            sums[i] += sign * _ROWS[i][j]
        prod = 1 + 0j
        for z in sums:
            prod *= z
        total += prod if (n - gray.bit_count()) % 2 == 0 else -prod
    return total


class HostClock:
    """Samples of `kernel`'s duration, one every `every` seconds.

    Inside `with clock:` a SIGALRM interval timer runs the kernel twice
    from a signal handler and keeps the second duration: the first run
    warms the caches that the interrupted code took, and a cold kernel
    slowed about three times as much as the CLI did. Python runs the
    handler in the main thread between bytecodes, so samples are taken
    while a long call runs as well as between calls. The handler's time
    inside a call is not the call's own and is subtracted from it
    (`stolen`). At about 0.8 ms every 50 ms the sampling costs under 2 %.
    """

    def __init__(self, every: float = 0.05):
        self.every = every
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._ends: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        mid = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - mid)
        self._ends.append(time.perf_counter())

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, a: float, b: float) -> slice:
        return slice(bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b))

    def stolen(self, a: float, b: float) -> float:
        """Seconds the handler ran between times `a` and `b`."""
        i = self._between(a, b)
        return sum(e - s for s, e in zip(self.starts[i], self._ends[i]))

    def around(self, a: float, b: float, pad: float = 0.25, least: int = 20) -> float:
        """Median kernel seconds in the samples started from `pad` before
        `a` to `pad` after `b`: the host's speed while a call ran from `a`
        to `b`. The window widens until it holds `least` samples, or all
        of them."""
        while True:
            window = self.durations[self._between(a - pad, b + pad)]
            if len(window) >= min(least, len(self.durations)):
                return statistics.median(window)
            pad *= 2
