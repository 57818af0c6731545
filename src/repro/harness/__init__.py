"""Fault-tolerant sweep harness.

Long design-space campaigns (Figures 6-7, Table 5) must tolerate and
account for individual cell failures instead of restarting from zero.
This package provides the pieces:

* :mod:`repro.sim.failures` (re-exported here) -- the failure
  taxonomy: true deadlock vs cycle/event budget exhaustion vs
  watchdog timeout vs worker crash vs poisoned cell, each carrying
  diagnostics;
* :class:`~repro.harness.spec.CellSpec` -- a content-hashed
  ``(config, workload, threads, budgets, ...)`` unit of work;
* :class:`~repro.harness.supervisor.RunSupervisor` -- subprocess
  isolation, a wall-clock watchdog, and bounded retry with escalated
  budgets for transient failures;
* :class:`~repro.harness.ledger.Ledger` -- crash-safe JSONL
  checkpointing keyed by cell hash, with per-record checksums and
  ``verify``/``repair``/``compact`` self-healing, enabling ``resume``;
* :mod:`repro.harness.scheduler` -- lane-based execution by one
  driver: independent ``(design, workload)`` lanes are dispatched to
  worker processes (``jobs=N``) or run by the driver itself
  (``jobs=1``), one cell or one lockstep batch group at a time, while
  the driver stays the single ledger writer, with a per-cell circuit
  breaker, jittered crash-retry backoff, and a campaign failure-rate
  budget;
* :func:`~repro.harness.sweep.design_space_sweep` -- the resumable
  Pareto-evaluation loop used by ``python -m repro sweep``: every
  lane through the scheduler, or the one skip loop whose switch
  positions are static pruning, the surrogate, and both;
* :mod:`repro.harness.chaos` -- seeded whole-runtime fault injection,
  the one injection layer (the simulator itself carries none): worker
  kills, driver crashes, torn/corrupt ledger lines, fsync
  failures; plus :class:`~repro.harness.chaos.ChaosInvariants`, the
  oracle proving recovery is bit-identical to an undisturbed run.
"""

from ..sim.failures import (
    FAILURE_CLASSES,
    CycleBudgetExhausted,
    EventBudgetExhausted,
    FailureDiagnostics,
    PoisonedCell,
    SimulationDeadlock,
    SimulationFailure,
    TrueDeadlock,
    WatchdogTimeout,
    WorkerCrash,
    classify,
    is_transient,
)
from .chaos import (
    POINTS,
    ChaosCampaignReport,
    ChaosController,
    ChaosDriverCrash,
    ChaosInvariants,
    ChaosPlan,
    run_chaos_campaign,
)
from .ledger import (
    Ledger,
    LedgerAudit,
    MaintenanceReport,
    summarize,
)
from .scheduler import (
    BREAKER_THRESHOLD,
    CircuitBreaker,
    Lane,
    RespawnBackoff,
    execute_lanes,
    static_rejection,
)
from .spec import SWEEP_MAX_CYCLES, SWEEP_MAX_EVENTS, CellSpec
from .supervisor import (
    DEFAULT_TIMEOUT_S,
    CellResult,
    RunSupervisor,
    execute_cell,
)
from .sweep import CellFailure, SweepReport, design_space_sweep, sweep_cells

__all__ = [
    "BREAKER_THRESHOLD",
    "CellFailure",
    "CellResult",
    "CellSpec",
    "ChaosCampaignReport",
    "ChaosController",
    "ChaosDriverCrash",
    "ChaosInvariants",
    "ChaosPlan",
    "CircuitBreaker",
    "Lane",
    "CycleBudgetExhausted",
    "DEFAULT_TIMEOUT_S",
    "EventBudgetExhausted",
    "FAILURE_CLASSES",
    "FailureDiagnostics",
    "Ledger",
    "LedgerAudit",
    "MaintenanceReport",
    "POINTS",
    "PoisonedCell",
    "RespawnBackoff",
    "RunSupervisor",
    "SimulationDeadlock",
    "SimulationFailure",
    "SWEEP_MAX_CYCLES",
    "SWEEP_MAX_EVENTS",
    "SweepReport",
    "TrueDeadlock",
    "WatchdogTimeout",
    "WorkerCrash",
    "classify",
    "design_space_sweep",
    "execute_cell",
    "execute_lanes",
    "is_transient",
    "run_chaos_campaign",
    "static_rejection",
    "summarize",
    "sweep_cells",
]
