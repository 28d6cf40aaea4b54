"""Host pace: fixed reference loops sampled while the benchmark measures.

The benchmark runs on a few cores of a shared host whose speed is not
steady.  On the 2-vCPU machine where it was tuned, the same 40 beam-10
sentences took from 2.0 to 3.6 s within one minute of one process, and the
slow stretches last from seconds to minutes, so no affordable run length
averages them out.  The processor time of the thread moved with its wall
time: the slow state is a slower processor, shared with other tenants, not
time taken away from the process.

``Pace`` times two fixed loops, which run no bowseq code, every
``INTERVAL_S`` seconds between timed operations: a pure-Python integer loop,
which tracks the interpreter-bound code (beam search, the toy model's small
arrays), and ``np.exp`` streamed over 8 MB arrays, larger than a core's L2
cache, which tracks code that goes through the shared cache and memory (the
wide vocabulary's arrays).  A sample is the geometric mean of the two times.
One-process tests timed 40 beam sentences, one toy epoch or five wide
rounds over and over, with a sample after every operation.

Operations slow down by different amounts when the host does: fitted over
such repetitions, log time rose 1.5 times as fast as the log of the sample
for beam-10 decoding at B=1, as fast for toy training and half as fast for
the wide training, whose time goes into large array operations.  That factor
is the operation's ``elasticity``.  ``nominal`` scales a wall-clock interval
by (``NOMINAL_REF_S`` / sample) ** elasticity, with the median of the samples
taken around the interval: the time the interval would have taken at the
host speed where a sample takes ``NOMINAL_REF_S``, the median sample over
the tuning machine's runs.  A change to bowseq moves nominal time as it
moves wall time; a change of host speed moves the reference loops too, and
mostly cancels.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

#: Seconds of timed work between reference samples.
INTERVAL_S = 0.15
#: Samples within this many seconds of an interval set its pace.
WINDOW_S = 0.6
#: The median sample over the benchmark runs on the tuning machine.
NOMINAL_REF_S = 0.0019
_PYTHON_ITERATIONS = 20_000
_STREAM_ELEMENTS = 1_000_000


def _python_loop() -> int:
    total = 0
    for i in range(_PYTHON_ITERATIONS):
        total += i * i
    return total


class Pace:
    """Reference samples taken between timed operations, by time stamp."""

    def __init__(self) -> None:
        self._source = np.linspace(-1.0, 1.0, _STREAM_ELEMENTS)
        self._target = np.empty_like(self._source)
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time spent in the reference loops
        np.exp(self._source, out=self._target)  # fault the pages in, untimed
        self.sample()

    def sample(self) -> None:
        started = time.perf_counter()
        _python_loop()
        middle = time.perf_counter()
        np.exp(self._source, out=self._target)
        ended = time.perf_counter()
        self.stamps.append(middle)
        self.samples.append(math.sqrt((middle - started) * (ended - middle)))
        self.spent_s += ended - started

    def tick(self) -> None:
        """Call between timed operations: samples once ``INTERVAL_S`` has passed."""
        if time.perf_counter() - self.stamps[-1] >= INTERVAL_S:
            self.sample()

    def reference_s(self, start: float, end: float) -> float:
        """Median sample around [start, end]."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if lo == hi:  # no sample near: take the last one before the interval
            lo, hi = max(lo - 1, 0), max(lo, 1)
        return statistics.median(self.samples[lo:hi])

    def nominal(self, seconds: float, start: float, end: float, elasticity: float) -> float:
        """``seconds`` of wall time spent within [start, end], at nominal pace,
        for an operation of the given elasticity."""
        return seconds * (NOMINAL_REF_S / self.reference_s(start, end)) ** elasticity
