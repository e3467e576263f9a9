"""Host speed, sampled inside the process that does the measured work.

The benchmark runs on a few virtual CPUs of a shared host, and how fast
those CPUs execute the same instructions drifts with the other tenants'
load (clock frequency, shared cores): on a 2-vCPU virtual machine,
repetitions of the same verb spread by 15-25% in CPU time as well as in
wall time (interquartile range over median), with steal near 0.
Averaging inside a run cannot remove a drift that lasts as long as the
run.

So while the work runs, a timer interrupts it every :data:`PERIOD_S` and
times :func:`kernel`, a fixed integer loop that fits in the first-level
caches: its time follows the speed of the CPU the work is running on at
that moment, and hardly depends on what the work does to memory.  A
measured time is rescaled to the speed at which the kernel takes
:data:`REFERENCE_S`::

    value_ref = value * REFERENCE_S / median(kernel times during the value)

The kernel is the benchmark's own code, never ``repro``'s, so a change to
the program cannot move it: a faster program lowers the rescaled value as
it lowers the measured one.  On that machine, over 6-11 repetitions of a
verb, rescaling cut the spread of CPU time from 17-25% to 5-6%.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Median :func:`kernel` time on the machine of ``BASELINE.json`` (2 vCPUs,
#: Python 3.11.7), so rescaled values read as seconds there at its typical
#: speed.
REFERENCE_S = 0.00035
#: Sampling period (s) of the kernel timer.
PERIOD_S = 0.1
#: Fewest kernel samples a measured interval must hold to be rescaled.
MIN_SAMPLES = 20
_LOOPS = 4000


def kernel() -> int:
    """A fixed amount of interpreter integer work, about 0.35 ms."""
    acc = 0
    for i in range(_LOOPS):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


class HostSpeed:
    """Samples :func:`kernel` on ``SIGALRM`` while the ``with`` body runs.

    Only the main thread may install it.  The samples' own time is
    :attr:`overhead_s`, to subtract from a CPU time taken over the body.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def overhead_s(self) -> float:
        return sum(self.samples)

    def kernel_s(self) -> float:
        """Median kernel time over the samples taken so far."""
        if len(self.samples) < MIN_SAMPLES:
            raise RuntimeError(
                f"only {len(self.samples)} host-speed samples; the "
                f"measured interval is too short to rescale")
        return statistics.median(self.samples)
