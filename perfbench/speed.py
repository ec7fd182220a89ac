"""Scaling measured times to a nominal host speed.

On a shared host the same pure-Python work can take anywhere from one to
two times as long from one moment to the next, and wall-clock medians
then move by 20-60% between runs of identical work.  So the benchmark
keeps sampling the host's speed with a short reference loop that uses
no code of this repository: right before and right after every timed
operation, and every ``SAMPLE_INTERVAL_S`` while it runs (from a timer
signal; the samples' own time is subtracted).  The operation's time is
then scaled by the mean over its samples of ``NOMINAL_S`` over the
sample's time.  The result is in seconds at the speed at which the
reference loop takes ``NOMINAL_S``; on a host whose speed holds still
it is wall time times a constant.  A change to the repository's code
moves the operation's time and not the reference, so scaled times
compare two commits the way wall times would on a quiet host.

Samples only at the ends of an operation are not enough: the host's
speed changes within a second, and executions run for up to two.

The reference loop does what the compiler and the interpreter do most:
it makes and drops small objects, reads their attributes and formats
integers.  A busy neighbour slows that kind of work more than plain
integer arithmetic, and an earlier arithmetic-only loop tracked it
worse: on the same noisy host, passes of 56 compiles scaled by it
spread 5.3% against 2.3%, and repeated executions of a cell 7-13%
against about 5%.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

#: iterations of the reference loop, about 0.1 ms
REFERENCE_ITERATIONS = 300
#: what the reference loop takes at nominal speed
NOMINAL_S = 0.0001
#: how often the host's speed is sampled during an operation
SAMPLE_INTERVAL_S = 0.01


class _Pair:
    __slots__ = ("first", "second")

    def __init__(self, first: int, second: int) -> None:
        self.first = first
        self.second = second


def reference_loop() -> int:
    """Object churn, attribute reads and integer formatting; uses no code
    of this repository."""
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        pair = _Pair(i, i + 1)
        total += pair.first + pair.second + len(str(i))
    return total


def time_reference() -> float:
    """One timed run of the reference loop, with the collector off so a
    sample never starts a collection inside a timed operation."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        reference_loop()
        return perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def speed_scale(references: list[float]) -> float:
    """The factor that takes wall time to nominal speed, from samples."""
    return sum(NOMINAL_S / seconds for seconds in references) / len(references)


@dataclass
class Timing:
    #: seconds the operation took, less the samples taken inside it
    wall: float = 0.0
    #: the same at nominal host speed
    scaled: float = 0.0


class SpeedProbe:
    """Times operations and scales them to nominal speed (module doc)."""

    def __init__(self) -> None:
        #: seconds spent sampling inside operations so far
        self.sampled_s = 0.0

    def clock(self) -> float:
        """``perf_counter`` less the time spent sampling: the clock the
        layer timer shares, so samples land in no layer."""
        return perf_counter() - self.sampled_s

    @contextmanager
    def measure(self):
        """Time the block; the yielded :class:`Timing` is filled on exit."""
        timing = Timing()
        inside: list[float] = []

        def sample(signum, frame) -> None:
            entered = perf_counter()
            inside.append(time_reference())
            self.sampled_s += perf_counter() - entered

        before = time_reference()
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        started = self.clock()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            timing.wall = self.clock() - started
        timing.scaled = timing.wall * speed_scale([before, *inside, time_reference()])
