"""Scaling of measured times to a reference machine speed.

Other tenants of a shared machine change its speed: on a 2-core test box the
same proptree work ran up to 2.4x slower, in spells of one to tens of seconds.
Process CPU time slows just as much as wall time, so it is no cure.  The
slowdowns hit all small-array numpy and Python work alike, so the benchmark
times a fixed 3 ms kernel, which shares no code with proptree, on a 0.05 s
interval timer throughout the measured code, and scales each stretch of work
between two kernel samples by ``REFERENCE_KERNEL_S`` over the mean of those
two samples.  A timed interval's reference seconds are the sum of its scaled
stretches; the kernel's own time is left out.  A change to proptree moves the
scaled time as it moves the wall time; a change in the machine's speed moves
both the work and the kernel around it and largely cancels out.

Over 240 s of train-joint rounds (training, then predicting 200 documents) on
that box, 10 s windows of raw time spread (IQR / median) 0.24-0.34 between
windows.  Scaled stretch by stretch, they spread 0.03-0.04 with a sample every
0.05 s, and 0.04-0.08 with a sample every 0.2 s: the speed changes within a
fraction of a second, so the samples must be dense.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# Sets the unit of the scaled times only: a round figure near the kernel's
# 2-3 ms on the 2-core development box.
REFERENCE_KERNEL_S = 0.003
# Wall seconds between two kernel samples.
SAMPLE_EVERY_S = 0.05

_A = np.full((64, 64), 0.01)
_V = np.full(64, 0.5)


def kernel() -> float:
    """About 3 ms of the small matrix-vector, tanh and dict work proptree does."""
    total = 0.0
    for i in range(400):
        x = np.tanh(_A @ _V)
        table = {j: j * 0.5 for j in range(16)}
        total += float(x.sum()) + table[i % 16]
    return total


class SpeedMeter:
    """Kernel samples taken on a timer while work runs, and the reference
    seconds of any interval of that work."""

    def __init__(self):
        self.starts: list[float] = []       # sample i ran from starts[i] ...
        self.ends: list[float] = []         # ... to ends[i]
        self.kernel_s: list[float] = []     # and timed the kernel at kernel_s[i]
        self._sampling = False
        self._previous = None

    def sample(self, *_) -> None:
        """Time one kernel run; also the timer's signal handler."""
        if self._sampling:
            return
        self._sampling = True
        started = time.perf_counter()
        kernel()
        self.starts.append(started)
        self.ends.append(time.perf_counter())
        self.kernel_s.append(self.ends[-1] - started)
        self._sampling = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()

    def seconds(self, t0: float, t1: float, scaled: bool = True) -> float:
        """Work seconds in ``[t0, t1]``, kernel samples left out; scaled to the
        reference speed unless ``scaled`` is false.  The interval must lie
        between the first and the last sample."""
        if not self.ends or t0 < self.ends[0] or t1 > self.starts[-1]:
            raise ValueError("interval not covered by kernel samples")
        total = 0.0
        i = bisect.bisect_right(self.ends, t0) - 1      # last sample ended by t0
        while i + 1 < len(self.starts) and self.ends[i] < t1:
            lo, hi = max(t0, self.ends[i]), min(t1, self.starts[i + 1])
            if hi > lo:
                scale = (2.0 * REFERENCE_KERNEL_S / (self.kernel_s[i] + self.kernel_s[i + 1])
                         if scaled else 1.0)
                total += scale * (hi - lo)
            i += 1
        return total
