"""Host speed, from a pure-Python loop that the benchmark owns.

Other tenants of a shared host slow every process on it.  On the two-core
virtual machine the benchmark was written on, the loop below took from 5
to 10 ms from one moment to the next, and its mean over a pass moved by
up to 40 % over minutes.  A unit of timed work that lasts through many
slow moments (a torus request of 50 to 600 ms, a census pass) is slowed
by their mean, and so is a pass of many short requests.  So the benchmark
runs the loop between the requests of a pass (tick()) or inside a census
pass (sampled_cli.py), takes each unit's median over passes, and scales
it by the loop's mean time there.  No cytk code runs in the loop, and the
garbage collector is off while it runs, so that neither a change to the
program nor the size of its heap can move it.
"""

from __future__ import annotations

import gc
import statistics
from collections import defaultdict
from fractions import Fraction
from math import gcd
from time import perf_counter

# The loop's fastest time on the machine above; end-to-end timings are
# reported at the host speed at which the loop takes this long on average.
REFERENCE_S = 0.0047
TICK_S = 0.05  # least time between two loop runs of tick()


def reference_work() -> int:
    """Integer, Fraction and dict work like cytk's, about 5 ms."""
    acc = 0
    table = {}
    for i in range(1, 1500):
        q = Fraction(i, i % 97 + 1) + Fraction(1, i % 13 + 2)
        table[i % 211] = q.numerator % 1000003
        acc = (acc * 31 + gcd(i, 360) + q.denominator) % 1000003
    return acc + len(table)


class HostSpeed:
    """The loop times seen in a run."""

    def __init__(self) -> None:
        # Loop times sampled by tick(), by the kind of pass.
        self.times: dict[str, list[float]] = defaultdict(list)
        self._last = 0.0

    def tick(self, unit: str) -> None:
        """Run the loop once if TICK_S has passed since it last ran.
        Called by each client between the requests of a pass, it samples
        the host all through the pass at a cost of at most a tenth of its
        time.  With two clients, the loop shares the interpreter with the
        other client as a request does."""
        if perf_counter() - self._last < TICK_S:
            return
        gc.disable()
        try:
            start = perf_counter()
            reference_work()
            self._last = perf_counter()
        finally:
            gc.enable()
        self.times[unit].append(self._last - start)

    def mean_factor(self, unit: str, turns: int = 1) -> float:
        """Multiply a median time over the passes sampled as ``unit`` by this
        to get it at the reference speed; divide a rate by it.  When
        ``turns`` clients take turns on one interpreter, the loop takes
        that many times as long at the reference speed."""
        return turns * REFERENCE_S / statistics.fmean(self.times[unit])
