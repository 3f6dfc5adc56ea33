"""Operation times at a fixed reference speed.

The machine's speed drifts by up to about 2x over seconds to minutes, and a
run can sit wholly inside a slow spell.  So the benchmark keeps measuring the
machine's current speed with a small fixed kernel, and reports every
operation's time at the kernel's nominal speed:

    paced seconds = seconds * REFERENCE_S / mean kernel seconds near the operation

The kernel runs BRACKET times between operations, and, while `sampling` is
on, once every INTERVAL seconds during them from a SIGALRM handler; the
handler's time is taken out of the operation's time.  The samples "near" an
operation are the ones taken during it and the BRACKET taken just before and
just after it, so a long operation is scaled by the speed over its whole
length, not only at its ends.

The kernel is the benchmark's own code and calls nothing in `qpfiber`, so no
change to the package can move it.  It does what the package's hot paths do
in pure Python: dictionary updates on small integers, and a convolution of
large integers like a product of Laurent polynomials.  It allocates no
object that the cycle collector tracks, so it never starts a collection of
the package's heap, and its time does not depend on that heap.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

REFERENCE_S = 0.0025  # the kernel's time at the machine's usual fast speed
INTERVAL = 0.05
BRACKET = 4

_WORDS = [(i * 0x9E3779B97F4A7C15 + 12345) % 10**30 for i in range(48)]
_TABLE: dict[int, int] = {}
_OUT = [0] * (2 * len(_WORDS))


def kernel() -> None:
    _TABLE.clear()
    for i in range(8000):
        key = i % 997
        _TABLE[key] = _TABLE.get(key, 0) + i * i
    for k in range(len(_OUT)):
        _OUT[k] = 0
    for i in range(len(_WORDS)):
        x = _WORDS[i]
        for j in range(len(_WORDS)):
            _OUT[i + j] += x * _WORDS[j]


class Pace:
    """The kernel's samples, in time order, and operation times scaled by them."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def _sample(self, *_signal) -> None:
        # A timer tick that lands inside a sample is dropped: run inside it,
        # it would lengthen that sample and put the two lists out of step.
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            self.ends.append(time.perf_counter())
            self.starts.append(start)
        finally:
            self._busy = False

    def bracket(self) -> None:
        for _ in range(BRACKET):
            self._sample()

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel every INTERVAL seconds, during the operations too."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(seconds of work from `start` to `end`, those seconds at the reference speed).

        Needs the BRACKET samples after `end` to have been taken.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end, lo=first)  # samples [first, last) ran inside
        inside = sum(self.ends[k] - self.starts[k] for k in range(first, last))
        near = range(max(first - BRACKET, 0), last + BRACKET)
        speed = statistics.fmean(self.ends[k] - self.starts[k] for k in near)
        seconds = end - start - inside
        return seconds, seconds * REFERENCE_S / speed
