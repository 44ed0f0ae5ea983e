"""Machine-speed reference, sampled while the ops run.

The CPU speed of a shared 2-core virtual machine switches between states
within a fraction of a second, and an op of a few seconds averages over
many switches; a reference timed only between ops catches one state at a
time.
So a timer signal interrupts the process every SAMPLE_EVERY_S of CPU time
and the handler times one fixed pure-Python reference loop, rotating
between three kinds of work the workloads do: Fraction sums with growing
denominators, integer trial division, and small Fractions in a dict keyed
by tuples.  Each op's time is then its wall time minus the time spent in
the handler, multiplied by the nominal over the measured time of the
workload's reference loops around that op.  Different kinds of work slow
down by different factors when the machine does, so each workload names
the loops that resemble its own work.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Each loop's mean time on the machine the baseline was recorded on (2-core
# x86-64 virtual machine, Python 3.11.7).  Constants, so that rescaled numbers of
# different runs and commits are comparable.
NOMINAL_REF_S = {
    "fraction_sum": 0.00062,
    "trial_division": 0.00056,
    "fraction_dict": 0.0019,
}
SAMPLE_EVERY_S = 0.02
WINDOW_S = 0.5  # each op is rescaled by the samples within this of it


def _fraction_sum():
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i)


def _trial_division():
    n = 1000000007 * 7919
    d, found = 3, 0
    while d < 12000:
        if n % d == 0:
            found += 1
        d += 2


def _fraction_dict():
    table = {}
    for i in range(250):
        x = Fraction(i % 13 + 1, i % 7 + 2)
        key = (("a", i % 3), i % 11)
        table[key] = table.get(key, Fraction(0)) + x * x


REFERENCE_LOOPS = {
    "fraction_sum": _fraction_sum,
    "trial_division": _trial_division,
    "fraction_dict": _fraction_dict,
}
KINDS = tuple(REFERENCE_LOOPS)


def reference_scale(kinds, rounds: int = 5) -> float:
    """Nominal over measured time of the given loops, timed back to back."""
    total = 0.0
    for _ in range(rounds):
        for kind in kinds:
            start = time.perf_counter()
            REFERENCE_LOOPS[kind]()
            total += time.perf_counter() - start
    return sum(NOMINAL_REF_S[kind] for kind in kinds) * rounds / total


class Sampler:
    """Times one reference loop per SIGVTALRM; keeps (start, kind, seconds)."""

    def __init__(self):
        self.starts: list = []
        self.kinds: list = []
        self.seconds: list = []
        self.on_sample = None  # called with the seconds spent, if set

    def _handler(self, signum, frame):
        kind = KINDS[len(self.starts) % len(KINDS)]
        start = time.perf_counter()
        REFERENCE_LOOPS[kind]()
        spent = time.perf_counter() - start
        self.starts.append(start)
        self.kinds.append(kind)
        self.seconds.append(spent)
        if self.on_sample is not None:
            self.on_sample(spent)

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._handler)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def stolen(self, begin: float, end: float) -> float:
        """Seconds the handler took from the interval [begin, end)."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.seconds[lo:hi])

    def means(self, begin: float, end: float) -> dict:
        """Mean time of each loop over the samples in [begin, end); the
        whole run's samples stand in where a kind has none there."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        out = {}
        for kind in KINDS:
            mine = [s for k, s in zip(self.kinds[lo:hi], self.seconds[lo:hi]) if k == kind]
            if not mine:
                if lo == 0 and hi == len(self.starts):
                    raise ValueError("too few reference samples")
                return self.means(self.starts[0], self.starts[-1] + 1.0)
            out[kind] = statistics.fmean(mine)
        return out

    def scale(self, kinds, begin: float, end: float) -> float:
        """Nominal over measured time of the given loops within WINDOW_S of
        [begin, end): the factor that takes a time there to nominal speed."""
        means = self.means(begin - WINDOW_S, end + WINDOW_S)
        return sum(NOMINAL_REF_S[k] for k in kinds) / sum(means[k] for k in kinds)
