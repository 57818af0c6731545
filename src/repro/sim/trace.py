"""Execution tracing.

An optional, zero-cost-when-off trace of the simulator's pipeline
events, in the spirit of the paper's appendix walk-through (Figure 9:
operands flowing through INPUT/MATCH/DISPATCH/EXECUTE/OUTPUT with
back-to-back speculative firing).

Attach a :class:`Trace` to an :class:`~repro.sim.engine.Engine` before
running; afterwards filter and render it::

    engine.trace = Trace()
    engine.run()
    print(engine.trace.render(pe=3))
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

#: Event kinds emitted by the engine, in pipeline order.  This tuple
#: is the *registry*: every kind the engine emits must be here, and
#: every kind here must be emitted by the engine --
#: ``tests/sim/test_trace.py`` asserts the round trip in both
#: directions, so the two can never silently drift apart again.
KINDS = (
    "input",       # token accepted into the matching table
    "reject",      # bank-conflict retry
    "match",       # row completed (instruction became ready)
    "dispatch",    # instruction dispatched
    "execute",     # result computed
    "output",      # operand sent toward a consumer
    "mem_req",     # request sent to a store buffer
    "mem_done",    # memory operation completed
    "overflow",    # matching-table miss (token deflected/evicted)
    "ifetch",      # instruction-store miss fetch
)

#: Complete, stable same-cycle ordering: pipeline position for every
#: registered kind; unregistered kinds (user-synthesised events) sort
#: after all registered ones, preserving emission order among
#: themselves (sorts here are stable).
_KIND_ORDER = {kind: index for index, kind in enumerate(KINDS)}
_UNKNOWN_ORDER = len(KINDS)

#: Trace capacity policies: ``drop_newest`` (default) keeps the first
#: ``limit`` events -- the start of the run; ``drop_oldest`` is a ring
#: buffer keeping the most recent ``limit`` events -- the end of the
#: run.  Either way :attr:`Trace.dropped` counts the evictions.
POLICIES = ("drop_newest", "drop_oldest")


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One pipeline event."""

    cycle: int
    kind: str
    pe: int
    inst: int
    thread: int
    wave: int
    detail: str = ""

    def render(self) -> str:
        return (
            f"{self.cycle:>8}  {self.kind:<9} pe{self.pe:<4} "
            f"i{self.inst:<5} t{self.thread}.w{self.wave:<4} {self.detail}"
        )


@dataclass
class Trace:
    """A bounded in-memory event trace.

    ``policy`` selects what happens when ``limit`` is reached:
    ``"drop_newest"`` (default, the historical behaviour) stops
    recording and keeps the first ``limit`` events; ``"drop_oldest"``
    turns the trace into a ring buffer keeping the *last* ``limit``
    events (useful when the interesting part is the end of the run,
    e.g. the events leading into a deadlock).  Dropped events are
    counted on :attr:`dropped` either way, and :meth:`render` (and
    ``repro trace``) always reports them.
    """

    limit: int = 100_000
    events: list = field(default_factory=list)
    dropped: int = 0
    policy: str = "drop_newest"

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown trace policy {self.policy!r}; "
                f"expected one of {POLICIES}"
            )
        if self.policy == "drop_oldest":
            # deque(maxlen=...) evicts the oldest entry on append in
            # O(1); it supports len/iteration/indexing, which is all
            # the trace API needs.
            self.events = deque(self.events, maxlen=self.limit)

    def emit(
        self,
        cycle: int,
        kind: str,
        pe: int,
        inst: int,
        thread: int,
        wave: int,
        detail: str = "",
    ) -> None:
        if len(self.events) >= self.limit:
            self.dropped += 1
            if self.policy == "drop_newest":
                return
        self.events.append(
            TraceEvent(cycle, kind, pe, inst, thread, wave, detail)
        )

    # ------------------------------------------------------------------
    def filter(
        self,
        kind: Optional[str] = None,
        pe: Optional[int] = None,
        inst: Optional[int] = None,
        thread: Optional[int] = None,
        since: int = 0,
        until: Optional[int] = None,
    ) -> list[TraceEvent]:
        """Events matching every given criterion, in time order."""
        out = []
        for e in self.events:
            if kind is not None and e.kind != kind:
                continue
            if pe is not None and e.pe != pe:
                continue
            if inst is not None and e.inst != inst:
                continue
            if thread is not None and e.thread != thread:
                continue
            if e.cycle < since:
                continue
            if until is not None and e.cycle > until:
                continue
            out.append(e)
        out.sort(
            key=lambda e: (e.cycle,
                           _KIND_ORDER.get(e.kind, _UNKNOWN_ORDER))
        )
        return out

    def render(self, **criteria) -> str:
        """Human-readable rendering of :meth:`filter`'s result."""
        events = self.filter(**criteria)
        header = (
            f"{'cycle':>8}  {'event':<9} {'PE':<6} {'inst':<6} "
            f"{'tag':<8} detail"
        )
        lines = [header] + [e.render() for e in events]
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (limit "
                         f"{self.limit})")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def instruction_timeline(self, inst: int) -> list[TraceEvent]:
        """The life of one static instruction across all its dynamic
        firings."""
        return self.filter(inst=inst)

    def dispatch_gaps(
        self, pe: Optional[int] = None, pod: Optional[int] = None
    ) -> list[int]:
        """Cycles between consecutive dispatches at one PE -- or, with
        ``pod``, across a PE pair sharing a bypass network (pipeline
        utilisation diagnostics; a gap of 1 is back-to-back)."""
        events = self.filter(kind="dispatch", pe=pe)
        if pod is not None:
            events = [e for e in events if e.pe // 2 == pod]
        times = sorted(e.cycle for e in events)
        return [b - a for a, b in zip(times, times[1:])]

    def back_to_back_pairs(
        self, pe: Optional[int] = None, pod: Optional[int] = None
    ) -> int:
        """How many dependent dispatches ran on consecutive cycles --
        the speculative-fire/bypass behaviour of the appendix's
        Figure 9."""
        return sum(
            1 for gap in self.dispatch_gaps(pe=pe, pod=pod) if gap == 1
        )

    def pods(self) -> set[int]:
        """Pods that dispatched at least once."""
        return {e.pe // 2 for e in self.filter(kind="dispatch")}

    def kinds_seen(self) -> set[str]:
        """Every event kind recorded in this trace."""
        return {e.kind for e in self.events}

    # ------------------------------------------------------------------
    def to_chrome(self, path) -> int:
        """Export as a Chrome trace-event JSON file (one track per
        PE), loadable in Perfetto or ``chrome://tracing``.  Returns
        the number of trace events written.  See
        :mod:`repro.obs.chrome` for the format mapping."""
        from ..obs.chrome import write_chrome_trace

        return write_chrome_trace(self, path)


def summarize(events: Iterable[TraceEvent]) -> dict[str, int]:
    """Event-count histogram by kind."""
    out: dict[str, int] = {}
    for e in events:
        out[e.kind] = out.get(e.kind, 0) + 1
    return out
