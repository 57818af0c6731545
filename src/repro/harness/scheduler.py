"""Lane-based execution of sweep cells: one driver for every ``jobs``.

The sweep's unit of scheduling is the *lane*: the ordered cells of
one ``(design, workload)`` pair.  Within a lane, execution is strictly
sequential -- thread-count escalation dispatches the next cell only
after the previous verdict, and every verdict but ``ok`` stops the
lane (more threads only add pressure on a design that already
failed).  Lanes themselves are independent.

There is one implementation of the lane protocol (resume hit ->
duplicate park -> pre-validation -> dispatch -> circuit breaker ->
account -> failure budget -> advance), :class:`_Driver`, and two
things a campaign can vary about it:

* ``jobs`` decides *how many dispatches are in flight*: one on each
  of ``jobs`` supervisors -- the caller's and ``jobs - 1`` spares --
  each a :class:`~repro.harness.supervisor.Dispatch` from
  :meth:`RunSupervisor.start`, waited on through the isolation
  children's pipes at once (an inline dispatch, or a prefetch that
  already settled, is done when it is handed over).  The only
  scheduling difference is where a lane with more cells to run
  re-enters the ready queue: at the back with several slots (every
  lane gets a turn), at the front with one, which keeps ``jobs=1``
  lane-major -- the ledger line order of the historical serial loop.
* ``width`` decides *how many cells a dispatch carries*: 1, or up to
  ``batch_width`` cells sharing :func:`_batch_group_key` when the
  supervisor's backend is ``batched``.

Guarantees, for every ``jobs`` and ``width``:

* **single-writer ledger** -- only the driver appends verdicts
  (batched through :meth:`Ledger.append_many`, still flushed +
  fsynced), so killing the driver loses at most the in-flight cells.
* **per-lane policy** -- pre-validation (``invalid`` verdicts) runs
  before a cell is ever dispatched, and the supervisor's watchdog /
  budget-escalating retries run for every dispatch.
* **order-independent aggregation** -- records are keyed by content
  hash; callers aggregate in canonical lane order after execution
  completes, so results are bit-identical regardless of completion
  order.

An isolation child that dies mid-cell (OOM killer, external SIGKILL)
is a ``WorkerCrash`` verdict; it goes through the circuit breaker and
the cell is dispatched again to a fresh child.  A child whose driver
dies reads end-of-file on its pipe and exits.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Iterable, Optional

from ..sim.failures import PoisonedCell, WorkerCrash
from .ledger import FAILED, OK, POISONED, Ledger
from .spec import CellSpec
from .supervisor import CellResult, RunSupervisor

#: Consecutive worker crashes on one cell before the circuit breaker
#: quarantines it as ``poisoned``.
BREAKER_THRESHOLD = 3

#: The campaign failure-rate budget only engages after this many
#: resolved cells -- one early failure out of two cells is not a 50%
#: failure rate worth aborting over.
MIN_BUDGET_CELLS = 5


class CircuitBreaker:
    """Per-cell crash-streak accounting (driver-side).

    A cell whose worker crashes is *retried*, not recorded: crash
    verdicts never reach the ledger, so a resumed campaign re-runs
    them instead of trusting a possibly-environmental failure.  But a
    cell that kills its worker ``threshold`` times in a row is
    deterministic poison -- further retries only burn wall clock -- so
    the breaker trips and the cell is recorded terminally as
    ``poisoned``.  Keys are :meth:`CellSpec.identity_hash`, so a crash
    streak follows the cell across budget escalations.
    """

    def __init__(self, threshold: int = BREAKER_THRESHOLD) -> None:
        self.threshold = threshold
        self.streaks: dict[str, int] = {}
        self.trips = 0
        self.crash_retries = 0

    def record_crash(self, identity: str) -> bool:
        """Count one crash; True when the streak trips the breaker."""
        streak = self.streaks.get(identity, 0) + 1
        if streak >= self.threshold:
            self.streaks.pop(identity, None)
            self.trips += 1
            return True
        self.streaks[identity] = streak
        self.crash_retries += 1
        return False

    def reset(self, identity: str) -> None:
        self.streaks.pop(identity, None)


class RespawnBackoff:
    """Decorrelated-jitter exponential backoff before crashed cells
    are dispatched again.

    ``sleep()`` waits ``uniform(base, prev * 3)`` capped at ``cap`` --
    the decorrelated-jitter scheme, which avoids both the thundering
    herd of fixed exponential backoff and the lockstep of full jitter.
    The jitter stream has a fixed seed, so a campaign backs off the
    same way run to run.  ``reset()`` on any successful result drain
    returns to the base delay.
    """

    def __init__(self, base: float = 0.05, cap: float = 1.0) -> None:
        self.base = base
        self.cap = cap
        self._rng = random.Random(0)
        self._prev = base
        self.total_s = 0.0

    def next_delay(self) -> float:
        self._prev = min(self.cap,
                         self._rng.uniform(self.base, self._prev * 3))
        return self._prev

    def sleep(self) -> None:
        delay = self.next_delay()
        self.total_s += delay
        time.sleep(delay)

    def reset(self) -> None:
        self._prev = self.base


def _poisoned_result(spec: CellSpec, threshold: int,
                     detail: str) -> CellResult:
    return CellResult(
        spec=spec, status=POISONED, attempts=threshold, retries=0,
        failure_class=PoisonedCell.__name__,
        failure_detail=(
            f"{spec.describe()}: circuit breaker opened after "
            f"{threshold} consecutive worker crashes"
            + (f" (last: {detail})" if detail else "")
        ),
    )


def _over_budget(report, budget: Optional[float]) -> Optional[str]:
    """The abort message when the campaign failure rate exceeds its
    budget, else ``None``."""
    if budget is None:
        return None
    resolved = (report.completed + report.failed + report.invalid
                + report.poisoned)
    bad = report.failed + report.poisoned
    if resolved >= MIN_BUDGET_CELLS and bad > budget * resolved:
        return (
            f"failure rate {bad}/{resolved} "
            f"({bad / resolved:.0%}) exceeds budget {budget:.0%}; "
            f"aborting with a partial report"
        )
    return None


def static_rejection(spec: CellSpec) -> Optional[list]:
    """Error-level config diagnostics dooming ``spec``, or ``None``.

    The pre-validation stage of every sweep: an unrealizable
    configuration (over the die budget, off the clock target,
    contradictory cache geometry) is caught here, before a subprocess
    is forked for it -- historically such a cell burned a full
    watchdog timeout and polluted retry accounting.
    """
    from ..analysis import analyze_config

    report = analyze_config(spec.config)
    return report.errors if report.has_errors else None


def _batch_group_key(spec: CellSpec) -> tuple:
    """The batch grouping key: cells sharing it are built from the
    same compiled workload ``(workload, scale, threads, k, seed)``, so
    one batch group compiles once and runs many configurations."""
    return (spec.workload, spec.scale, spec.threads, spec.k, spec.seed)


@dataclass
class Lane:
    """One sequential chain of cells (a ``(design, workload)`` pair).

    ``next_spec``/``advance`` form the scheduling protocol: a lane
    yields its next cell only after the previous cell's record has
    been fed back, and a non-``ok`` verdict retires the lane early.
    """

    key: tuple
    specs: list[CellSpec]
    cursor: int = 0
    stopped: bool = False

    def next_spec(self) -> Optional[CellSpec]:
        if self.stopped or self.cursor >= len(self.specs):
            return None
        return self.specs[self.cursor]

    def advance(self, record: dict) -> None:
        self.cursor += 1
        if record.get("status") != OK:
            self.stopped = True

    @property
    def exhausted(self) -> bool:
        return self.stopped or self.cursor >= len(self.specs)


# ----------------------------------------------------------------------
# Verdicts as records
# ----------------------------------------------------------------------
def _raised(specs: list[CellSpec], exc: Exception) -> list[CellResult]:
    """An exception out of the supervisor is a verdict like any other:
    every cell of the dispatch is ``failed`` under its class name."""
    return [
        CellResult(spec=spec, status=FAILED, attempts=1, retries=0,
                   failure_class=type(exc).__name__,
                   failure_detail=f"{type(exc).__name__}: {exc}")
        for spec in specs
    ]


def _records(specs: list[CellSpec], results) -> list[dict]:
    return [
        Ledger.record_for(spec, result)
        for spec, result in zip(specs, results)
    ]


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class _Driver:
    """Owns all mutable scheduling state -- ready queue, in-flight
    cells, parked duplicates, circuit breaker -- and the dispatch
    slots: ``jobs`` supervisors, the caller's first."""

    def __init__(self, lanes, jobs, supervisor: RunSupervisor, ledger,
                 done, report, progress, prevalidate, failure_budget=None):
        self.jobs = jobs
        #: Cells per dispatch: 1 unless the campaign batches cells.
        self.width = (supervisor.batch_width
                      if supervisor.backend == "batched" else 1)
        self.ledger = ledger
        self.done = done
        self.report = report
        self.progress = progress
        self.prevalidate = prevalidate
        self.failure_budget = failure_budget
        self.aborted = False
        self.breaker = CircuitBreaker()
        self.backoff = RespawnBackoff()
        self.slots = [supervisor] + [
            supervisor.spare() for _ in range(jobs - 1)
        ]
        self.idle: deque[int] = deque(range(jobs))
        #: slot -> (specs, Dispatch) in flight.
        self.running: dict[int, tuple] = {}
        self.inflight: dict[str, tuple[Lane, CellSpec]] = {}
        self.waiting: dict[str, list[Lane]] = {}  # duplicate-cell parks
        self.ready: deque[Lane] = deque(lanes)
        # Scheduler observability: dispatch counts and busy spans per
        # slot, added into report.metrics["scheduler"] (_add_metrics).
        self._dispatched = 0
        self._batch_groups = 0
        self._batched_cells = 0
        self._busy_s = 0.0
        self._assigned_at: dict[int, float] = {}
        self._started = time.monotonic()

    # -- scheduling -----------------------------------------------------
    def _requeue(self, lane: Lane) -> None:
        """A lane with more to run re-enters the ready queue: at the
        back with several slots, so every lane gets a turn; at the
        front with one, so ``jobs=1`` finishes one lane before starting
        the next and the ledger stays lane-major."""
        if self.jobs > 1:
            self.ready.append(lane)
        else:
            self.ready.appendleft(lane)

    def _next_dispatch(self, lane: Lane) -> Optional[tuple[str, CellSpec]]:
        """Advance ``lane`` through every cell the driver can resolve
        itself (resume hits, duplicates, pre-validation rejects);
        return the first cell needing a dispatch, or ``None`` when the
        lane is exhausted or parked behind an in-flight duplicate."""
        while True:
            spec = lane.next_spec()
            if spec is None:
                return None
            cell = spec.cell_hash()
            record = self.done.get(cell)
            if record is not None:
                self.report.skipped += 1
                if self.progress is not None:
                    self.progress(spec, record)
                lane.advance(record)
                continue
            if cell in self.inflight:
                self.waiting.setdefault(cell, []).append(lane)
                return None
            if self.prevalidate:
                rejected = static_rejection(spec)
                if rejected is not None:
                    record = Ledger.record_invalid(spec, rejected)
                    self.report.invalid += 1
                    if self.ledger is not None:
                        self.ledger.append(record)
                    self.done[cell] = record
                    if self.progress is not None:
                        self.progress(spec, record)
                    lane.advance(record)
                    continue
            return cell, spec

    def _next_group(self) -> list[tuple[str, CellSpec]]:
        """Pop ready lanes into one dispatch: up to ``width`` cells
        sharing the compiled-workload group key (at width 1, the next
        dispatchable cell).  A lane whose next cell does not match the
        group's key keeps its place in the ready queue for a later
        group (put back *after* the group is built, so a mixed ready
        queue can never spin the pump).  Cells are staged into
        ``inflight`` as they join, so a duplicate cell later in the
        same pump parks in ``waiting``."""
        group: list[tuple[str, CellSpec]] = []
        deferred: list[Lane] = []
        key = None
        while self.ready and len(group) < self.width:
            lane = self.ready.popleft()
            dispatch = self._next_dispatch(lane)
            if dispatch is None:
                continue
            cell, spec = dispatch
            lane_key = _batch_group_key(spec)
            if key is None:
                key = lane_key
            elif lane_key != key:
                deferred.append(lane)
                continue
            self.inflight[cell] = (lane, spec)
            group.append((cell, spec))
        self.ready.extendleft(reversed(deferred))
        return group

    def _pump(self) -> None:
        """Keep every idle slot fed while ready lanes remain."""
        while self.idle and self.ready and not self.aborted:
            group = self._next_group()
            if not group:
                continue
            slot = self.idle.popleft()
            specs = [spec for _, spec in group]
            self._dispatched += len(group)
            if len(group) > 1:
                self._batch_groups += 1
                self._batched_cells += len(group)
            self._assigned_at[slot] = time.monotonic()
            try:
                self.running[slot] = (specs, self.slots[slot].start(specs))
            except Exception as exc:  # noqa: BLE001 - classify, keep going
                self._commit([(slot, _records(specs, _raised(specs, exc)))])

    def _drain(self) -> list[tuple[int, list[dict]]]:
        """Completed dispatches as ``(slot, records)``: those already
        done (an inline dispatch, a settled prefetch) at once; else it
        waits until an isolation child answers or hangs up, or the
        nearest watchdog deadline passes, and advances those
        dispatches."""
        dispatches = [dispatch for _, dispatch in self.running.values()]
        ready: list = []
        if all(dispatch.verdicts is None for dispatch in dispatches):
            deadlines = [dispatch.deadline for dispatch in dispatches
                         if dispatch.deadline is not None]
            ready = wait(
                [dispatch.conn for dispatch in dispatches],
                max(0.0, min(deadlines) - time.monotonic()) if deadlines
                else None,
            )
        now = time.monotonic()
        batch: list[tuple[int, list[dict]]] = []
        for slot, (specs, dispatch) in list(self.running.items()):
            if dispatch.verdicts is None and dispatch.conn not in ready \
                    and (dispatch.deadline is None
                         or dispatch.deadline > now):
                continue
            try:
                results = dispatch.advance()
            except Exception as exc:  # noqa: BLE001 - classify, keep going
                results = _raised(specs, exc)
            if results is not None:
                del self.running[slot]
                batch.append((slot, _records(specs, results)))
        return batch

    def _resolve(self, cell: str, record: dict) -> None:
        """Feed one verdict into its lane (and any parked duplicates)."""
        lane, spec = self.inflight.pop(cell)
        self.done[cell] = record
        status = record.get("status")
        if status == OK:
            self.report.completed += 1
        elif status == POISONED:
            self.report.poisoned += 1
        else:
            self.report.failed += 1
        self.report.retried += record.get("retries", 0)
        if self.progress is not None:
            self.progress(spec, record)
        lane.advance(record)
        if not lane.exhausted:
            self._requeue(lane)
        for parked in self.waiting.pop(cell, ()):
            self.report.skipped += 1
            if self.progress is not None:
                self.progress(parked.next_spec(), record)
            parked.advance(record)
            if not parked.exhausted:
                self._requeue(parked)
        abort = _over_budget(self.report, self.failure_budget)
        if abort is not None and not self.aborted:
            self.aborted = True
            self.report.aborted = abort
            self.ready.clear()  # in-flight cells drain, nothing new

    def _breaker_verdict(self, cell: str,
                         record: dict) -> tuple[dict, bool]:
        """Route one verdict through the circuit breaker.

        Returns ``(record, retry)``.  A ``WorkerCrash`` below the
        breaker threshold is *intercepted*: the caller must requeue
        the cell instead of recording it -- crash verdicts never reach
        the ledger, so a resumed campaign re-runs them (the crash may
        have been environmental).  At the threshold the verdict is
        rewritten to a terminal ``poisoned`` record.
        """
        lane, spec = self.inflight[cell]
        if (record.get("status") == OK
                or record.get("failure_class") != WorkerCrash.__name__):
            self.breaker.reset(spec.identity_hash())
            self.backoff.reset()
            return record, False
        if self.breaker.record_crash(spec.identity_hash()):
            poisoned = Ledger.record_for(spec, _poisoned_result(
                spec, self.breaker.threshold,
                record.get("failure_detail") or "",
            ))
            return poisoned, False
        return record, True

    def _commit(self, batch: list[tuple[int, list[dict]]]) -> None:
        staged: list[tuple[str, dict, bool]] = []
        for slot, records in batch:
            self._busy_s += time.monotonic() - self._assigned_at.pop(slot)
            self.idle.append(slot)
            for record in records:
                cell = record["hash"]
                record, retry = self._breaker_verdict(cell, record)
                staged.append((cell, record, retry))
        durable = [record for _, record, retry in staged if not retry]
        if durable and self.ledger is not None:
            self.ledger.append_many(durable)
        if len(durable) < len(staged):
            # Decorrelated-jitter pause before crashed cells get a
            # fresh dispatch: a crash loop (bad node, OOM storm) must
            # not spin the driver into the breaker threshold.
            self.backoff.sleep()
        for cell, record, retry in staged:
            if retry:
                lane, _ = self.inflight.pop(cell)
                self._requeue(lane)  # same cell, fresh dispatch
            else:
                self._resolve(cell, record)

    def _add_metrics(self) -> None:
        """Add this execution's counts into the report's one
        ``scheduler`` block.  The skip loop runs one driver per lane,
        each at ``jobs=1``, into one report, so counts accumulate and
        utilization is recomputed from the summed busy and wall time.
        Wall-clock derived, so outside the bit-identical-for-any-jobs
        contract (which covers the per-cell ``metrics`` blocks on
        ledger records)."""
        block = self.report.metrics.setdefault("scheduler", {
            "mode": "parallel" if self.jobs > 1 else "serial",
            "workers": self.jobs,
        })
        for key, value in (
                ("dispatched", self._dispatched),
                ("busy_s", self._busy_s),
                ("wall_s", time.monotonic() - self._started),
                ("worker_crash_retries", self.breaker.crash_retries),
                ("breaker_trips", self.breaker.trips),
                ("backoff_s", self.backoff.total_s),
                ("batch_groups", self._batch_groups),
                ("batched_cells", self._batched_cells)):
            block[key] = block.get(key, 0) + value
        capacity = block["workers"] * block["wall_s"]
        block["utilization"] = (
            round(block["busy_s"] / capacity, 4) if capacity > 0 else 0.0
        )

    # -- main loop ------------------------------------------------------
    def run(self) -> None:
        try:
            self._pump()
            while self.inflight:
                self._commit(self._drain())
                self._pump()
        finally:
            for _, dispatch in self.running.values():
                dispatch.cancel()
            for spare in self.slots[1:]:
                spare.close()
            self._add_metrics()


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def execute_lanes(
    lanes: Iterable[Lane],
    *,
    supervisor: RunSupervisor,
    jobs: Optional[int] = 1,
    ledger: Optional[Ledger] = None,
    done: Optional[dict[str, dict]] = None,
    report=None,
    progress: Optional[Callable[[CellSpec, dict], None]] = None,
    prevalidate: bool = True,
    failure_budget: Optional[float] = None,
) -> dict[str, dict]:
    """Run every lane to exhaustion; returns the records-by-hash map.

    ``supervisor`` starts each dispatch (:meth:`RunSupervisor.start`)
    and stays the caller's to close.  ``jobs=1`` runs every dispatch
    to the end before the next, one lane after the other.
    ``jobs>1`` (or ``jobs=None``/``0`` for ``os.cpu_count()``) keeps up
    to that many dispatches in flight, one on the caller's supervisor
    and one on each of its spares (closed on return), each in its own
    isolation child; completion order then varies but the produced
    record set does not.  An ``isolation="inline"`` supervisor runs
    cells in the driver, one at a time, so with ``jobs != 1`` it is a
    ``ValueError``.  ``done`` (resumed records) is updated in place
    and returned.

    ``failure_budget`` is the campaign failure-rate ceiling, a share
    in [0, 1] (e.g. ``0.5``), past which the run aborts with
    ``report.aborted`` set instead of grinding through a doomed
    campaign.
    """
    if failure_budget is not None and not 0 <= failure_budget <= 1:
        raise ValueError(
            f"failure budget must be a share in [0, 1], "
            f"not {failure_budget!r}"
        )
    if jobs != 1 and supervisor.isolation == "inline":
        raise ValueError(
            f"jobs={jobs!r} needs process isolation: an inline "
            f"supervisor runs cells in the driver, one at a time"
        )
    lanes = [lane for lane in lanes if not lane.exhausted]
    if done is None:
        done = {}
    if report is None:
        from .sweep import SweepReport

        report = SweepReport()
    if not jobs:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(lanes)))
    _Driver(
        lanes, jobs, supervisor, ledger, done, report, progress,
        prevalidate, failure_budget,
    ).run()
    return done
