"""Machine-speed probe, so that timings can be compared across runs.

On a host whose cores are shared with other tenants, identical work can
take 1.6 times longer while they are busy, in phases that last from seconds
to minutes.  A wall time alone then says more about the neighbours than
about the program.  A :class:`SpeedProbe` samples the machine's current
speed every ``INTERVAL_S`` by timing a fixed kernel of small-object Python
work that shares no code with the library, and scales each measured interval
to the speed at which that kernel takes ``REFERENCE_S``: a normalized second
is a second on the uncontended machine.  A change to the library moves the
interval but not the kernel, so it still shows in full; ``slowdown.py``
checks this for added work and for collector work over a larger heap.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

REFERENCE_S = 210e-6  # in-situ kernel time on an uncontended core of the reference machine
INTERVAL_S = 0.02
WINDOW_S = 0.1  # samples this long before an interval still describe it


@dataclass(frozen=True)
class _Node:
    kids: tuple


_LEAF = _Node(())


def kernel() -> int:
    """Build, hash and sort small immutable objects, like the library does;
    recursion stays shallow so that a sample never deepens the stack much."""
    pairs = [_Node((_LEAF, _Node((_LEAF, _LEAF)) if i % 2 else _LEAF)) for i in range(60)]
    table = {node: i for i, node in enumerate(pairs)}
    order = sorted(((i * 37) % 101, i, (i % 3, i % 5)) for i in range(300))
    return len(table) + len(order)


class SpeedProbe:
    """Samples ``kernel`` on SIGALRM while active; a context manager.

    A sample runs the kernel twice and times the second run, so the caches
    the measured work left behind do not count as machine speed.
    """

    def __init__(self):
        self._paused = False
        self.begins: list[float] = []  # whole sample, warm-up included
        self.ends: list[float] = []
        self.spent = [0.0]  # cumulative seconds of whole samples
        self.timed: list[float] = []  # seconds of each timed run

    def sample(self) -> None:
        # the kernel frees all it allocates; with the collector off meanwhile,
        # the measured work's collections fall where they would without it
        collecting = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        try:
            kernel()
            start = time.perf_counter()
            kernel()
        except RecursionError:  # the signal arrived deep inside a recursion
            return
        finally:
            if collecting:
                gc.enable()
        end = time.perf_counter()
        self.begins.append(begin)
        self.ends.append(end)
        self.spent.append(self.spent[-1] + end - begin)
        self.timed.append(end - start)

    def _tick(self, *_signal_args) -> None:
        if not self._paused:
            self.sample()

    @contextmanager
    def paused(self):
        """No timer samples, for while a child process runs on this core."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def median(self) -> float:
        return statistics.median(self.timed)

    def speed(self, start: float, end: float) -> float:
        """Median kernel time over the samples that end in [start - WINDOW_S,
        end]; the median, because a sample the host preempts reads long."""
        j = bisect.bisect_right(self.ends, end)
        i = min(bisect.bisect_left(self.ends, start - WINDOW_S), j - 1)
        return statistics.median(self.timed[i:j])

    def net(self, start: float, end: float) -> float:
        """The interval minus the samples this process took inside it."""
        i = bisect.bisect_left(self.begins, start)
        j = bisect.bisect_right(self.ends, end)
        return end - start - (self.spent[j] - self.spent[i] if j > i else 0.0)

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to normalized seconds over [start, end]."""
        return REFERENCE_S / self.speed(start, end)

    def normalize(self, start: float, end: float) -> float:
        """Normalized seconds of work done in this process over [start, end]."""
        return self.net(start, end) * self.scale(start, end)
