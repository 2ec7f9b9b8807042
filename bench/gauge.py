"""The speed of the machine while the ops run, sampled inside the ops.

On a shared machine the CPU time of fixed Python work drifts by 25 % or
more within seconds, because other tenants contend for the same cores and
caches.  The drift is common to all Python code, so a started Gauge times
a fixed pure-Python reference loop (independent of setseq) every TICK_S of
CPU time, from a SIGPROF handler, so that samples land inside long ops as
well as between short ones.  The handler's own CPU time is taken out of
every span it interrupts, and the CPU time of a span is scaled by the
typical sample taken during it and next to it, to the time the span would
take at the reference speed (REFERENCE_S per sample).

Times are thread CPU times: while a process-wide CPU timer such as
ITIMER_PROF is armed, the process CPU clock only advances at the scheduler
tick, and the benchmark is single-threaded.
"""

from __future__ import annotations

import signal
import statistics
from time import thread_time

#: CPU seconds between two reference samples.
TICK_S = 0.02
#: CPU seconds of one reference_loop() call at the reference speed, the
#: typical speed of the machine the baseline was taken on.
REFERENCE_S = 0.001
#: Samples on each side of a span that count towards its speed.
NEIGHBOURS = 3

#: A point in a run: CPU time, handler CPU time so far, samples so far.
Mark = tuple[float, float, int]


def _mix(n: int) -> int:
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 0xFFFF
        table[key] = (i, key ^ acc)
        acc = (acc + len(table) + table[key][1]) & 0xFFFFFFFF
    items = sorted(table.items())
    return acc ^ sum(a ^ b for _, (a, b) in items[::3])


def reference_loop() -> int:
    """Fixed pure-Python work: dicts, tuples, sorting, calls and int ops."""
    return sum(_mix(40) for _ in range(40))


def time_reference() -> float:
    start = thread_time()
    reference_loop()
    return thread_time() - start


def typical(samples: list[float]) -> float:
    """Mean of the samples without the highest and lowest tenth."""
    ordered = sorted(samples)
    trim = len(ordered) // 10
    return statistics.fmean(ordered[trim : len(ordered) - trim])


class Gauge:
    """Reference samples every TICK_S of CPU time between start() and stop()."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        start = thread_time()
        try:
            self.samples.append(time_reference())
        except RecursionError:  # it interrupted a deep recursion: no sample
            pass
        finally:
            self.spent += thread_time() - start

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> None:
        """Stop sampling, with one last sample after the last span."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._tick()

    def mark(self) -> Mark:
        return thread_time(), self.spent, len(self.samples)

    def elapsed(self, start: Mark, end: Mark) -> float:
        """CPU seconds between two marks, without the handler's."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def scaled(self, start: Mark, end: Mark) -> float:
        """elapsed() at the reference speed; valid once the gauge is stopped."""
        window = self.samples[max(0, start[2] - NEIGHBOURS) : end[2] + NEIGHBOURS]
        return self.elapsed(start, end) * REFERENCE_S / typical(window)
