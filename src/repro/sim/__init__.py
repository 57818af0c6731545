"""Cycle-level simulator of the WaveScalar processor.

Entry point::

    from repro.sim import simulate
    stats = simulate(graph, config)

Abnormal stops raise the failure taxonomy of :mod:`repro.sim.failures`
(:class:`TrueDeadlock`, :class:`CycleBudgetExhausted`,
:class:`EventBudgetExhausted`), all subclasses of the historical
:class:`SimulationDeadlock`.
"""

from .engine import Engine, simulate
from .failures import (
    FAILURE_CLASSES,
    CycleBudgetExhausted,
    EventBudgetExhausted,
    FailureDiagnostics,
    SimulationDeadlock,
    SimulationFailure,
    TrueDeadlock,
    WatchdogTimeout,
    WorkerCrash,
    classify,
    is_transient,
)
from .stats import KINDS, LEVELS, SimStats
from .trace import Trace, TraceEvent

__all__ = [
    "Engine",
    "Trace",
    "TraceEvent",
    "SimulationDeadlock",
    "SimulationFailure",
    "TrueDeadlock",
    "CycleBudgetExhausted",
    "EventBudgetExhausted",
    "WatchdogTimeout",
    "WorkerCrash",
    "FailureDiagnostics",
    "FAILURE_CLASSES",
    "classify",
    "is_transient",
    "simulate",
    "KINDS",
    "LEVELS",
    "SimStats",
]
