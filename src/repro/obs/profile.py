"""Opt-in per-phase time attribution of the engine hot loop, by sampling.

Attach a :class:`PhaseProfile` to an engine before running::

    engine.profile = PhaseProfile()
    engine.run()
    print(engine.profile.render())

The loop carries no profiling code.  ``Engine._begin`` arms a 2 ms
``ITIMER_REAL`` and ``Engine._end`` disarms it, putting back the
``SIGALRM`` handler and timer it found, so a run and each cell of a
batch are covered alike.  Each sample walks out from the interrupted
frame (an evaluator, a store buffer, a wrapper) to the innermost frame
of ``repro/sim/engine.py`` and charges the process CPU time since the
previous sample -- measured, not the nominal interval -- to the phase
of that frame's line: the nearest ``# phase: <name>`` comment line at
or above it.  The phases (:data:`PHASES`) mirror the paper's pipeline
stages plus ``other`` (calendar bookkeeping, ifetch fills, wave
retirement), and sum to the run's CPU time less the time after the
last sample.  A sample lands where CPython next checks for signals (a
call, a function entry or a loop's back edge), so time spent just
before a phase boundary with no call in between goes to the phase
after it.  A signal costs the run ~10-40 us in delivery, so 2 ms (~500
samples/s) costs ~2%, where 1 ms cost ~4% (``ITIMER_PROF`` is held to
the kernel tick, ~250/s).  Signal handlers run on the main thread
only: a profiled run elsewhere raises ``ValueError`` before the engine
changes any state.
"""

from __future__ import annotations

import re
import signal
from functools import cache
from time import perf_counter, process_time_ns

#: Phase names in pipeline order (render order).
PHASES = (
    "input",
    "match",
    "dispatch",
    "execute",
    "deliver",
    "memory",
    "other",
)

#: Sampling interval of the ``ITIMER_REAL`` timer, in seconds.
INTERVAL_S = 0.002


@cache
def _engine_lines() -> tuple[str, tuple[str, ...]]:
    """The engine's source file and the phase of each of its lines
    (index 0: none), read once."""
    from ..sim import engine

    markers = re.compile(r"^\s*# phase: (%s)\s*$" % "|".join(PHASES))
    phase, phases = "other", ["other"]
    with open(engine.__file__, encoding="utf-8") as fh:
        for line in fh:
            marker = markers.match(line)
            phase = marker.group(1) if marker else phase
            phases.append(phase)
    return engine.__file__, tuple(phases)


class PhaseProfile:
    """Sampled time attribution over the engine's pipeline phases."""

    __slots__ = ("ns", "samples", "_last", "_saved")

    def __init__(self) -> None:
        self.ns: dict[str, int] = {phase: 0 for phase in PHASES}
        self.samples = 0
        self._last = 0
        # (handler, (delay, interval), armed at) from before start().
        self._saved = None

    # -- sampling (armed by Engine._begin, disarmed by Engine._end) ----
    def start(self) -> None:
        """Install the handler and arm the timer, keeping what was
        there for :meth:`stop`.  Off the main thread ``signal.signal``
        raises ``ValueError`` before anything is installed."""
        _engine_lines()
        self._last = process_time_ns()
        handler = signal.signal(signal.SIGALRM, self._sample)
        timer = signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._saved = (handler, timer, perf_counter())

    def stop(self) -> None:
        """Disarm the timer and put back the handler and timer that
        :meth:`start` found; a no-op when not started."""
        if self._saved is None:
            return
        handler, (delay, interval), armed_at = self._saved
        self._saved = None
        left = delay and max(delay - (perf_counter() - armed_at), 1e-6)
        # Disarm first: a sample already due is taken by this handler
        # as the call returns, before the old one is back.  None is a
        # handler installed outside Python; the default stands in.
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler or signal.SIG_DFL)
        signal.setitimer(signal.ITIMER_REAL, left, interval)

    def _sample(self, signum, frame) -> None:
        now = process_time_ns()
        elapsed, self._last = now - self._last, now
        engine_file, phases = _engine_lines()
        while frame is not None and frame.f_code.co_filename != engine_file:
            frame = frame.f_back
        # f_lineno is None on a line-less instruction: index 0, "other".
        phase = "other" if frame is None else phases[frame.f_lineno or 0]
        self.ns[phase] += elapsed
        self.samples += 1

    # -- reading -------------------------------------------------------
    @property
    def total_ns(self) -> int:
        return sum(self.ns.values())

    def fractions(self) -> dict[str, float]:
        total = self.total_ns
        if not total:
            return {phase: 0.0 for phase in self.ns}
        return {phase: ns / total for phase, ns in self.ns.items()}

    def to_dict(self) -> dict:
        return {
            "ns": dict(self.ns),
            "samples": self.samples,
            "total_ns": self.total_ns,
        }

    def render(self) -> str:
        total = self.total_ns
        lines = [f"{'phase':<10}{'time':>12}{'share':>8}"]
        for phase in PHASES:
            ns = self.ns[phase]
            share = ns / total if total else 0.0
            lines.append(f"{phase:<10}{ns / 1e6:>10.2f}ms{share:>8.1%}")
        lines.append(f"{'total':<10}{total / 1e6:>10.2f}ms"
                     f"  ({self.samples:,} samples)")
        return "\n".join(lines)
