"""Machine-speed probe that normalises the benchmark's timings.

The benchmark runs on shared 2-CPU virtual machines whose speed drifts
with the load of other tenants, and the guest sees no steal time.  On
such a host identical coarsening passes took between 1.2 and 2.4 s from
one minute to the next, and process CPU time drifted with wall time.  A
fixed pure-Python reference kernel slows down by nearly the same factor
(correlation 0.95 over 2-s windows).  So every timed phase runs under a
:class:`SpeedProbe`: a ``SIGALRM`` handler times the kernel every
``INTERVAL_S`` seconds, the phase's busy time excludes the handler, and
the busy time is divided by the phase's mean kernel time over
``NOMINAL_KERNEL_S``.  On identical 1.7-s windows this cut the spread of
the timing from 18 % to 4 %.  The result reads as seconds on a host
where the kernel takes ``NOMINAL_KERNEL_S``; the raw timings are printed
next to it.

The kernel is pure Python so that it can run before numpy is imported,
and the handler runs only between bytecodes, never inside a numpy call.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.1
# About the kernel time on an idle 2-CPU Intel Xeon virtual machine at 2.1 GHz.
NOMINAL_KERNEL_S = 0.0016


def reference_kernel() -> float:
    """A fixed mix of float arithmetic, list indexing and calls."""
    values = [float(i) for i in range(64)]
    total = 0.0
    for i in range(8000):
        x = values[i & 63]
        total += x * 0.5 - (x if i & 1 else -x)
        if i % 64 == 0:
            values = [v * 1.0000001 + 0.1 for v in values]
    return total


class SpeedProbe:
    """Context manager timing the reference kernel across one phase.

    It samples at entry, at exit and on every :meth:`sample` call, and with
    ``timer=True`` also every ``INTERVAL_S`` seconds.  The traced run uses
    ``timer=False`` and samples between operations, so that no kernel time
    lands inside a span.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.samples: list[float] = []
        self.wall_s = 0.0

    def sample(self, *_) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
        self._start = time.perf_counter()
        self.sample()
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        self.wall_s = time.perf_counter() - self._start

    @property
    def busy_s(self) -> float:
        """Wall time of the phase minus the time spent in the kernel."""
        return self.wall_s - sum(self.samples)

    @property
    def slowdown(self) -> float:
        """Mean kernel time over the nominal one; 2 means half speed."""
        return sum(self.samples) / len(self.samples) / NOMINAL_KERNEL_S

    @property
    def normalised_s(self) -> float:
        """Busy time at nominal host speed."""
        return self.busy_s / self.slowdown
