"""Failure taxonomy for simulation runs.

The engine used to signal every abnormal stop with a single bare
``SimulationDeadlock``.  A design-space sweep needs to *account* for
failures, not merely observe them: a configuration that genuinely
deadlocks is broken forever, while one that merely exhausted its cycle
or event budget might complete under a larger budget, and a run that
hung at the process level says nothing about the architecture at all.
This module distinguishes those cases and attaches structured
diagnostics so a supervisor (``repro.harness``) can decide whether to
retry, escalate, skip, or record.

``SimulationDeadlock`` is kept as the umbrella base class so existing
``except SimulationDeadlock`` sites keep working; new code should
catch the specific subclasses.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass(frozen=True)
class FailureDiagnostics:
    """Structured state of the machine at the moment of failure."""

    cycles: int = 0  # simulated cycles reached
    events_processed: int = 0
    events_pending: int = 0  # calendar entries still queued
    tokens_in_flight: int = 0  # buffered operands awaiting a partner
    #: Buffered-work depth per queue class (matching rows, parked
    #: instruction fetches, k-bound stalled wave advances, calendar).
    queue_depths: dict[str, int] = field(default_factory=dict)
    max_cycles: Optional[int] = None
    max_events: Optional[int] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FailureDiagnostics":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class FixedPoint:
    """A deflection fixed point the engine proved: every live token
    bounces off a full matching-table set whose rows all outrank it,
    once per ``period``, and nothing else is pending that could free a
    row.  A capacity deadlock of the modelled machine -- no budget
    finishes the cell.  Kept beside the failure, not in
    :class:`FailureDiagnostics`, so ledger records are unchanged."""

    cycle: int  # the machine state has repeated since here
    period: int  # cycles per repeat (the overflow round trip)
    #: The cycling tokens, ``(pe, inst, thread, wave, port)`` each.
    tokens: tuple
    #: The sets they bounce off: ``(pe, set)`` -> one ``((thread,
    #: wave, inst), ports present)`` per resident row.
    sets: dict

    def describe(self) -> str:
        n = len(self.tokens)
        return (
            f"deflection fixed point since cycle {self.cycle}: {n} "
            f"token{'s' if n != 1 else ''}, no budget can finish this cell"
        )


class SimulationDeadlock(RuntimeError):
    """Base class for every abnormal simulation stop.

    Kept under its historical name for backward compatibility; the
    subclasses below say *why* the run stopped.  ``diagnostics`` is a
    :class:`FailureDiagnostics` when the engine raised the failure, or
    ``None`` for supervisor-level failures (timeout, crash).
    """

    def __init__(
        self,
        message: str,
        diagnostics: Optional[FailureDiagnostics] = None,
    ) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


#: Preferred alias for new code.
SimulationFailure = SimulationDeadlock


class TrueDeadlock(SimulationDeadlock):
    """The event calendar drained with work still buffered: some token
    is waiting for a partner that can never arrive."""


class CycleBudgetExhausted(SimulationDeadlock):
    """Simulated time passed ``max_cycles`` before the program
    finished.  Potentially transient: a larger budget may complete."""


class EventBudgetExhausted(SimulationDeadlock):
    """The engine processed ``max_events`` calendar entries -- the
    wall-time bound for thrashing configurations that generate many
    retry events per simulated cycle.  Potentially transient."""


class WatchdogTimeout(SimulationDeadlock):
    """A supervised run exceeded its wall-clock allowance and was
    killed.  Raised/recorded by the harness, never by the engine."""


class WorkerCrash(SimulationDeadlock):
    """A supervised subprocess died without reporting a result
    (signal, OOM kill, interpreter abort)."""


class PoisonedCell(SimulationDeadlock):
    """A cell whose workers crashed so many consecutive times that the
    campaign circuit breaker quarantined it: further retries would
    only burn the retry budget.  Terminal -- recorded with ledger
    status ``poisoned`` and never re-dispatched on resume; the rest of
    the campaign continues (graceful degradation)."""


#: The budget classes a supervisor may retry with escalated budgets.
TRANSIENT_CLASSES = (CycleBudgetExhausted, EventBudgetExhausted)

#: Name -> class registry for (de)serialising failure records.
FAILURE_CLASSES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        SimulationDeadlock,
        TrueDeadlock,
        CycleBudgetExhausted,
        EventBudgetExhausted,
        WatchdogTimeout,
        WorkerCrash,
        PoisonedCell,
    )
}


def classify(name: str) -> type:
    """The failure class for a recorded class name (base class for
    unknown names, so old ledgers stay readable)."""
    return FAILURE_CLASSES.get(name, SimulationDeadlock)


def is_transient(name_or_exc) -> bool:
    """Whether a failure might succeed under a larger budget."""
    if isinstance(name_or_exc, BaseException):
        return isinstance(name_or_exc, TRANSIENT_CLASSES)
    return classify(str(name_or_exc)) in TRANSIENT_CLASSES
