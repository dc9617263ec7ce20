"""Host-speed reference for the timed metrics.

A shared, unpinned host runs the same Python code at speeds that differ
by up to 2x, in bursts of a fraction of a second to minutes.  Right
after each timed operation a run therefore times a fixed piece of
reference work (object-heavy pure Python: small slotted objects,
tuples, dict updates and short list sorts, the same kind of work the
library does) for at least ``SHARE`` of the operation's time.

The operation's times are then scaled by ``REF_S / mean reference
time`` of the samples taken just before and just after it: a "reference-speed second" is a second on a
host that runs the reference work in ``REF_S`` seconds.  Host speed
swings scale the reference work and the library alike and cancel out;
a change in the library does not touch the reference work and shows in
full.  The reference work is timed with the cyclic garbage collector
off, so that collections owed to the library's garbage are not charged
to it.  The run's mean factor is on its info line.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_S = 0.006  # the reference work on the machine of README.md, in its fast periods
SHARE = 0.1

clock = time.perf_counter


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def reference_work() -> int:
    """A fixed amount of interpreter work; its result is discarded."""
    table: dict = {}
    acc = 0
    for i in range(6000):
        item = _Item(i, (i * 7) % 13)
        key = (item.a >> 3, item.b)
        table[key] = table.get(key, 0) + 1
        acc += len(table) & 7
        row = [item.a, item.b, acc]
        row.sort()
    return acc


class Speed:
    """Reference samples interleaved with a run's timed work."""

    def __init__(self, warmup: int = 3) -> None:
        self.samples: list[float] = []
        self.last = [self.sample() for _ in range(warmup)]

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            reference_work()
            took = clock() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(took)
        return took

    def after(self, timed_s: float) -> float:
        """Sample right after ``timed_s`` seconds of timed work, for at
        least ``SHARE`` of that time; return the factor that turns those
        seconds into reference-speed seconds, from the samples taken just
        before the work (after the previous one) and just after it."""
        taken = [self.sample()]
        while sum(taken) < SHARE * timed_s:
            taken.append(self.sample())
        around, self.last = self.last + taken, taken
        return REF_S / statistics.fmean(around)

    def factor(self) -> float:
        """Reference-speed seconds per second over the whole run."""
        return REF_S / statistics.fmean(self.samples)
