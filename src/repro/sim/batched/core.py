"""Multi-cell execution of the event-driven engine.

The sweep's unit of work is the *cell*: one (design, workload) pair
simulated to completion.  Cells are mutually independent, so a batch
of same-workload cells runs them one after another, in construction
order, each to completion, and each cell finalizes exactly where the
serial engine would have.

Every cell runs the engine's one hot path -- :meth:`Engine._begin`,
:meth:`Engine._drain`, :meth:`Engine._finish`, :meth:`Engine._end` --
so whatever a cell's engine has attached (trace, sanitizer, profile)
behaves exactly as in a serial run.  What a batch group shares:

* **decode** -- every cell of a group indexes the same
  :class:`~repro.sim.compile.CompiledGraph` (flat per-instruction
  tuples and evaluators, built once per workload);
* **one attempt** -- one job down the supervisor's isolation child,
  one result message and one ledger append for the whole group.

What is deliberately **not** shared: all per-cell mutable machine
state (matching tables, reservation ledgers, store buffers, stats).
``tests/sim/test_batched_backend.py`` holds every workload to
``SimStats`` (and failure) equality with the serial engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine import Engine
from ..stats import SimStats

__all__ = ["BatchedEngine", "BatchOutcome"]


@dataclass
class BatchOutcome:
    """One cell's terminal state after a batch run."""

    stats: Optional[SimStats] = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class BatchedEngine:
    """Runs a list of independently-constructed :class:`Engine`
    instances to completion, one after another."""

    def __init__(self, engines: list[Engine]) -> None:
        if not engines:
            raise ValueError("batch must contain at least one engine")
        self.engines = engines

    def run(self, strict: bool = True) -> list[BatchOutcome]:
        """Drive every cell to its terminal state; returns one
        :class:`BatchOutcome` per cell, in construction order.

        A cell that raises (budget exhaustion, deadlock) is recorded
        and the next cell runs.  ``strict`` matches :meth:`Engine.run`:
        quiescence is audited per cell after its calendar drains.
        """
        outcomes = []
        for engine in self.engines:
            outcome = BatchOutcome()
            engine._begin()
            try:
                outcome.stats = engine._finish(engine._drain(), strict)
            except Exception as exc:  # noqa: BLE001 - per-cell verdict
                # Kept without its traceback: the frames would tie
                # this one's ``outcomes`` -- and every engine --
                # into a reference cycle.
                outcome.error = exc.with_traceback(None)
            engine._end()
            outcomes.append(outcome)
        return outcomes
