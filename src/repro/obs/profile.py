"""Opt-in per-phase cycle attribution of the engine hot loop.

Attach a :class:`PhaseProfile` to an engine before running::

    engine.profile = PhaseProfile()
    engine.run()
    print(engine.profile.render())

The engine brackets each hot-loop region with :meth:`PhaseProfile.push`
/ :meth:`PhaseProfile.pop`; nested regions attribute *self time* (a
push inside an open region subtracts its span from the parent), so the
reported nanoseconds sum to the loop's wall time without double
counting.  Phases mirror the paper's pipeline stages:

=========  ======================================================
input      token arrival: istore residency, store decoupling
match      matching-table insert / fire decision
dispatch   bandwidth reservation + result steering
execute    ALU/FPU evaluation (:func:`repro.isa.semantics.evaluate`)
deliver    operand routing and token posting
memory     store-buffer submit and completion fan-out
other      ifetch fills, wave retirement bookkeeping
=========  ======================================================

Cost contract: profiling is **opt-in**.  The engine has one hot path
and every push/pop site on it is an ``if prof is not None:`` test on a
local, so a run with no profile attached makes no call into this
module; what those tests cost is tracked in absolute seconds by every
workload of ``bench/run.py``.
"""

from __future__ import annotations

from time import perf_counter_ns

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


def phase_of_tag(tag: int) -> str:
    """The pipeline phase charged for one integer calendar tag.

    The engine's calendar carries the integer tags of
    :mod:`repro.sim.events`; this is the human-facing mapping back to
    a :data:`PHASES` name (unknown tags land in ``"other"``, so
    reporting code never raises on a foreign tag).  Imported lazily so
    this module stays loadable without the simulator package.
    """
    from ..sim.events import tag_phase

    return tag_phase(tag)


class PhaseProfile:
    """Self-time attribution over the engine's pipeline phases."""

    __slots__ = ("ns", "calls", "_stack")

    def __init__(self) -> None:
        self.ns: dict[str, int] = {phase: 0 for phase in PHASES}
        self.calls: dict[str, int] = {phase: 0 for phase in PHASES}
        # Open regions: [phase, start_ns, child_ns].
        self._stack: list[list] = []

    # -- recording (hot path) ------------------------------------------
    def push(self, phase: str) -> None:
        self._stack.append([phase, perf_counter_ns(), 0])

    def pop(self) -> None:
        phase, started, child_ns = self._stack.pop()
        span = perf_counter_ns() - started
        self.ns[phase] = self.ns.get(phase, 0) + span - child_ns
        self.calls[phase] = self.calls.get(phase, 0) + 1
        if self._stack:
            self._stack[-1][2] += span

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
            "calls": dict(self.calls),
            "total_ns": self.total_ns,
        }

    def render(self) -> str:
        total = self.total_ns
        lines = [
            f"{'phase':<10}{'calls':>12}{'time':>12}{'share':>8}"
        ]
        order = list(PHASES) + sorted(
            set(self.ns) - set(PHASES)
        )
        for phase in order:
            ns = self.ns.get(phase, 0)
            calls = self.calls.get(phase, 0)
            share = ns / total if total else 0.0
            lines.append(
                f"{phase:<10}{calls:>12,}{ns / 1e6:>10.2f}ms"
                f"{share:>8.1%}"
            )
        lines.append(f"{'total':<10}{'':>12}{total / 1e6:>10.2f}ms")
        return "\n".join(lines)
