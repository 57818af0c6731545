"""Calibrated seconds: host time with the host's speed divided out.

The reference machine is a 2-core VM on a shared host.  The same
Python work takes 2.7-5.8 s there depending on the minute it runs in
(measured: 101 back-to-back passes of one fixed workload, inter-quartile
spread 39% of the median), the slow phases last minutes, and user CPU
time stretches with them.  No statistic over a 10-30 s run removes
that, so raw seconds cannot resolve a 25% regression, let alone 10%.

The noise is multiplicative and a small pure-Python kernel feels it
too.  So the timed region is cut into segments, a calibration sample
(the kernel below, about 30 ms) is taken between segments, and each
segment's wall time is scaled by ``CAL_REF_S`` over the mean of its two
bracketing samples.  The sum is the region's *calibrated* wall time:
the seconds it would have taken on a host where the kernel takes
exactly ``CAL_REF_S``.  Time spent in the samples is not part of any
segment.  Over ten runs per workload this brought the spread of the
benchmark's ``wall_s`` from 13-29% to 2-8% (8-13% on ``cells_long``,
which is memory-bound where the kernel is not).

The kernel shares no code with ``repro``, so no change to the program
can move it.  Every ``_s`` metric the benchmark reports is in
calibrated seconds; the raw wall time and the factor between the two
are reported beside them (``trace.raw_wall_s``, ``trace.calib_factor``,
and in the result files).
"""

from __future__ import annotations

from time import perf_counter

#: The kernel's usual time on the reference machine.  Only a scale:
#: it makes calibrated seconds read like that machine's.
CAL_REF_S = 0.028

#: Work between two samples, at least (seconds).
SEGMENT_S = 0.5

_TABLE = {i: i for i in range(4096)}
_LIST = list(range(4096))


def sample(n: int = 120_000) -> float:
    """Seconds one run of the calibration kernel takes: integer
    arithmetic plus dict and list probes, the interpreter operations
    the simulator's event loop is made of.  It allocates nothing that
    outlives an iteration: a kernel that builds tuples drifted by 15%
    against fixed work over 20 minutes in one process (allocator
    state), this one stayed within 3%."""
    table = _TABLE
    items = _LIST
    started = perf_counter()
    x = total = 0
    for i in range(n):
        key = (i * 7919) & 4095
        x = (x + i * i) % 7
        total += table[key] + items[key]
        table[key] = i & 255
    return perf_counter() - started


class Meter:
    """Accumulates a timed region as calibrated and as raw seconds."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self.sample_s = 0.0  # spent in samples after the first
        #: Durations handed to :meth:`note`, each scaled by the factor
        #: of the segment it was noted in.
        self.noted: list = []
        self._pending: list = []
        self._sample = sample()
        self._segment_started = perf_counter()

    def note(self, seconds: float) -> None:
        """A raw duration measured inside the current segment (a cell's
        wall time), to be calibrated with that segment."""
        self._pending.append(seconds)

    def tick(self, force: bool = True) -> None:
        """Close the current segment with a fresh sample.  With
        ``force=False`` only once the segment is ``SEGMENT_S`` long, so
        it can be called after every small unit of work."""
        segment = perf_counter() - self._segment_started
        if not force and segment < SEGMENT_S:
            return
        after = sample()
        scale = CAL_REF_S / ((self._sample + after) / 2)
        self.sample_s += after
        self.raw_s += segment
        self.calibrated_s += segment * scale
        self.noted += [seconds * scale for seconds in self._pending]
        self._pending.clear()
        self._sample = after
        self._segment_started = perf_counter()

    @property
    def factor(self) -> float:
        """Calibrated seconds per raw second over the region so far."""
        return self.calibrated_s / self.raw_s


def calibrated(seconds: float) -> float:
    """One-off: ``seconds`` just measured, scaled by a fresh sample."""
    return seconds * CAL_REF_S / sample()
