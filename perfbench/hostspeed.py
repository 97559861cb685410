"""Host-speed sampling, so that host times survive a shared machine's drift.

On a shared host one process's speed moves by up to 1.6x within seconds,
as other tenants load the physical cores under it.  Both CPU time and wall
time move with it, so two runs of the same code can differ by 30%.
:class:`HostSpeed` times a fixed reference task every ``PERIOD_S`` seconds
of a repetition, from a timer signal, and reports the mean speed relative
to ``NOMINAL_S``.  Host times multiplied by ``speed ** SENSITIVITY``
follow the simulator's own work and drop most of the drift.  The time
spent in the reference task is kept off the clock that the benchmark's
timers read (:meth:`HostSpeed.clock`).

The reference task uses only the standard library, so no change to the
simulator can make it faster or slower.  It does integer, float, heap and
dict work on structures built once at import, and allocates no object the
cyclic garbage collector tracks, so it never moves the simulator's
collections.
"""

from __future__ import annotations

import heapq
import signal
import time

PERIOD_S = 0.25
"""Interval between speed samples during a repetition."""

NOMINAL_S = 0.010
"""Reference-task time that defines speed 1.0."""

SENSITIVITY = 0.8
"""How closely the simulator's time follows the reference task's.

The simulator slows less than the reference task when the host is loaded:
the slope of log clock time on log speed, between repetitions of one seed,
was -0.66 to -0.86 on the four workloads.  Over three ten-seed sets of all
four workloads, the worst spread of the scaled wall time was 0.157 with
1.0, 0.106 with 0.8 and 0.142 with 0.7 (0.464 unscaled).
"""

_ROUNDS = 14000
"""Loop trips per reference task: about ``NOMINAL_S`` on a 2-core x86_64
Xeon under Python 3.11."""

_HEAP = [float(i) for i in range(64)]
_COUNTS = dict.fromkeys(range(64), 0)


def reference_task() -> int:
    """A fixed, interpreter-bound loop: heap pops and pushes, dict updates."""
    heap, counts = _HEAP, _COUNTS
    x = 12345
    for _ in range(_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        t = heapq.heappop(heap)
        heapq.heappush(heap, t + (x & 1023) * 0.001)
        k = x & 63
        counts[k] = counts[k] + 1
    return x


class HostSpeed:
    """Samples the host's speed while a repetition runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        """Seconds spent in the reference task, kept off :meth:`clock`."""
        self._previous = None

    def clock(self) -> float:
        """``time.perf_counter`` minus the time spent sampling."""
        return time.perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_task()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        """Take one sample now, then one every ``PERIOD_S`` seconds."""
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer and take a last sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def speed(self) -> float:
        """Mean speed over the samples; 1.0 is the nominal host."""
        return sum(NOMINAL_S / s for s in self.samples) / len(self.samples)

    def scale(self) -> float:
        """Factor that turns this repetition's clock times into host times
        at the nominal speed."""
        return self.speed() ** SENSITIVITY
