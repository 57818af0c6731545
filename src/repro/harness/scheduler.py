"""Lane-based execution of sweep cells: one driver for every ``jobs``.

The sweep's unit of scheduling is the *lane*: the ordered cells of
one ``(design, workload)`` pair.  Within a lane, execution is strictly
sequential -- thread-count escalation dispatches the next cell only
after the previous verdict, and a failure stops the lane (more
threads only add pressure on a design that already failed).  Lanes
themselves are independent.

There is one implementation of the lane protocol (resume hit ->
duplicate park -> pre-validation -> dispatch -> circuit breaker ->
account -> failure budget -> advance), :class:`_Driver`, and two
things a campaign can vary about it:

* ``jobs`` decides *where a dispatch runs*: in one of ``jobs``
  long-lived worker processes, or -- ``jobs == 1`` -- in the driver's
  own process, a single slot with no pool.  Both run the dispatch
  through :func:`_run_dispatch` and commit its records through the
  same ``_commit``.  The only scheduling difference is where a lane
  with more cells to run re-enters the ready queue: at the back when
  workers run cells (every lane gets a turn), at the front when the
  driver does, which keeps ``jobs=1`` lane-major -- the ledger line
  order of the historical serial loop.
* ``width`` decides *how many cells a dispatch carries*: 1, or up to
  ``batch_width`` cells sharing :func:`_batch_group_key` when the
  supervisor's backend is ``batched``.

Guarantees, for every ``jobs`` and ``width``:

* **single-writer ledger** -- workers never open the ledger file.
  Verdicts travel back over a result queue and only the driver
  appends them (batched through :meth:`Ledger.append_many`, still
  flushed + fsynced), so killing the driver loses at most the
  in-flight cells.
* **per-lane policy** -- pre-validation (``invalid`` verdicts) runs
  driver-side before a cell is ever dispatched, and the supervisor's
  watchdog / budget-escalating retries run wherever the dispatch
  does.
* **order-independent aggregation** -- records are keyed by content
  hash; callers aggregate in canonical lane order after execution
  completes, so results are bit-identical regardless of completion
  order.

A worker that dies without reporting (OOM killer, external SIGKILL)
is detected by the driver: its in-flight cells go through the circuit
breaker like any returned ``WorkerCrash`` verdict, a replacement
worker is spawned, and the campaign continues.  Orphaned workers
(driver SIGKILLed) notice their parent changed and exit instead of
leaking.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..sim.failures import PoisonedCell, WorkerCrash
from .ledger import Ledger
from .spec import CellSpec
from .supervisor import CellResult

#: How long the driver blocks on the result queue before checking
#: worker health, and how long a worker blocks on its inbox before
#: checking whether its driver is still alive.
POLL_S = 0.2
_ORPHAN_POLL_S = 1.0

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
    """Decorrelated-jitter exponential backoff for worker respawn.

    ``sleep()`` waits ``uniform(base, prev * 3)`` capped at ``cap`` --
    the decorrelated-jitter scheme, which avoids both the thundering
    herd of fixed exponential backoff and the lockstep of full jitter.
    Seeded, so chaos runs back off identically run to run.  ``reset()``
    on any successful result drain returns to the base delay.
    """

    def __init__(self, seed: int = 0, base: float = 0.05,
                 cap: float = 1.0) -> None:
        self.base = base
        self.cap = cap
        self._rng = random.Random(seed)
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
        spec=spec, status="poisoned", attempts=threshold, retries=0,
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
    poisoned = getattr(report, "poisoned", 0)
    resolved = (report.completed + report.failed + report.invalid
                + poisoned)
    bad = report.failed + poisoned
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
    """The lockstep grouping key: cells sharing it are built from the
    same compiled workload ``(workload, scale, threads, k, seed)``, so
    one batch group compiles once and lockstep-executes many
    configurations."""
    return (spec.workload, spec.scale, spec.threads, spec.k, spec.seed)


def _group_width(supervisor) -> int:
    """Cells per dispatch: 1 unless this campaign groups cells into
    lockstep batches."""
    if getattr(supervisor, "backend", None) != "batched":
        return 1
    return getattr(supervisor, "batch_width", 1)


@dataclass
class Lane:
    """One sequential chain of cells (a ``(design, workload)`` pair).

    ``next_spec``/``advance`` form the scheduling protocol: a lane
    yields its next cell only after the previous cell's record has
    been fed back, and -- with ``stop_on_failure`` -- a non-``ok``
    verdict retires the lane early.
    """

    key: tuple
    specs: list[CellSpec]
    stop_on_failure: bool = True
    cursor: int = 0
    stopped: bool = False

    def next_spec(self) -> Optional[CellSpec]:
        if self.stopped or self.cursor >= len(self.specs):
            return None
        return self.specs[self.cursor]

    def advance(self, record: dict) -> None:
        self.cursor += 1
        if self.stop_on_failure and record.get("status") != "ok":
            self.stopped = True

    @property
    def exhausted(self) -> bool:
        return self.stopped or self.cursor >= len(self.specs)


def _merge_scheduler_metrics(report, block: dict) -> None:
    """Fold one execution's scheduler block into ``report.metrics``.

    The sweep's skip loop calls :func:`execute_lanes` once per lane;
    naively assigning the block would leave only the *last* lane's
    counters in the report.  Counters accumulate, high-water marks
    take the max, and utilization is recomputed from the merged
    busy/wall totals.  Wall-clock derived throughout, so (like the
    individual blocks) outside the determinism contract.
    """
    if not hasattr(report, "metrics"):
        return
    previous = report.metrics.get("scheduler")
    if not previous:
        report.metrics["scheduler"] = block
        return
    merged = dict(previous)
    for key in ("workers_spawned", "workers_reaped", "dispatched",
                "worker_respawns", "worker_crash_retries",
                "breaker_trips", "batch_groups", "batched_cells"):
        merged[key] = previous.get(key, 0) + block.get(key, 0)
    for key in ("busy_s", "wall_s", "backoff_s"):
        merged[key] = round(
            previous.get(key, 0.0) + block.get(key, 0.0), 3
        )
    for key in ("workers", "max_ready_lanes", "max_inflight"):
        merged[key] = max(previous.get(key, 0), block.get(key, 0))
    if block.get("mode") != previous.get("mode"):
        merged["mode"] = "mixed"
    capacity = merged["workers"] * merged["wall_s"]
    merged["utilization"] = (
        round(merged["busy_s"] / capacity, 4) if capacity > 0 else 0.0
    )
    report.metrics["scheduler"] = merged


# ----------------------------------------------------------------------
# Running a dispatch (worker process, or the driver itself at jobs=1)
# ----------------------------------------------------------------------
def _failed_result(spec: CellSpec, failure_class: str,
                   detail: str) -> CellResult:
    return CellResult(
        spec=spec, status="failed", attempts=1, retries=0,
        failure_class=failure_class, failure_detail=detail,
    )


def _run_dispatch(supervisor, specs: list[CellSpec]) -> list[dict]:
    """One dispatch -- one cell, or one lockstep batch group --
    through the supervisor's full policy, as ledger records.

    A single-cell list takes :meth:`RunSupervisor.run`, a longer one
    :meth:`RunSupervisor.run_batch`.  An exception out of the
    supervisor is a verdict like any other: every cell of the dispatch
    is recorded ``failed`` under the exception's class name, wherever
    the dispatch ran.
    """
    try:
        if len(specs) == 1:
            verdicts = [supervisor.run(specs[0])]
        else:
            verdicts = supervisor.run_batch(specs)
    except Exception as exc:  # noqa: BLE001 - classify, keep going
        verdicts = [
            _failed_result(spec, type(exc).__name__,
                           f"{type(exc).__name__}: {exc}")
            for spec in specs
        ]
    return [
        Ledger.record_for(spec, result)
        for spec, result in zip(specs, verdicts)
    ]


def _worker_main(worker_id: int, inbox, results, supervisor) -> None:
    """Long-lived worker loop: pull a dispatch (``list[CellSpec]``),
    run it, ship ``(worker_id, list[record])`` back in one put."""
    driver_pid = os.getppid()
    try:
        while True:
            try:
                specs = inbox.get(timeout=_ORPHAN_POLL_S)
            except queue.Empty:
                if os.getppid() != driver_pid:
                    return  # driver died; don't leak
                continue
            if specs is None:
                return
            records = _run_dispatch(supervisor, specs)
            plan = getattr(supervisor, "chaos", None)
            if plan is not None and len(specs) == 1 and plan.selected(
                    "result_delay", specs[0].identity_hash()):
                # Late verdict delivery: the driver must tolerate results
                # arriving long after dispatch (and after reap checks).
                time.sleep(plan.delay_s)
            results.put((worker_id, records))
    finally:
        # A duck-typed supervisor need not keep a child to hang up on.
        getattr(supervisor, "close", lambda: None)()


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    process: object
    inbox: object


class _Driver:
    """Owns all mutable scheduling state -- ready queue, in-flight
    cells, parked duplicates, circuit breaker -- and, with
    ``jobs > 1``, the worker pool.  With ``jobs == 1`` there is no
    pool: slot 0 is the driver's own process."""

    def __init__(self, lanes, jobs, supervisor, ledger, done, report,
                 progress, prevalidate, mp_context, poll_s,
                 chaos=None, failure_budget=None):
        self.jobs = jobs
        self.pool_size = jobs if jobs > 1 else 0
        self.width = _group_width(supervisor)
        self.supervisor = supervisor
        self.ledger = ledger
        self.done = done
        self.report = report
        self.progress = progress
        self.prevalidate = prevalidate
        self.poll_s = poll_s
        self.chaos = chaos  # driver-side ChaosController (or None)
        self.failure_budget = failure_budget
        self.aborted = False
        self.breaker = CircuitBreaker()
        seed = chaos.plan.seed if chaos is not None else 0
        self.backoff = RespawnBackoff(seed)
        self.workers: dict[int, _Worker] = {}
        self.idle: deque[int] = deque()
        if self.pool_size:
            if mp_context is None:
                mp_context = (
                    "fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn"
                )
            self.ctx = multiprocessing.get_context(mp_context)
            self.results = self.ctx.Queue()
        else:
            self.idle.append(0)
        #: The dispatch slot 0 runs next on this process (jobs == 1).
        self.local: Optional[list[CellSpec]] = None
        # slot id -> cell hashes of its in-flight dispatch (one for
        # a plain cell, several for a lockstep batch group).
        self.assigned: dict[int, list[str]] = {}
        self.inflight: dict[str, tuple[Lane, CellSpec]] = {}
        self.waiting: dict[str, list[Lane]] = {}  # duplicate-cell parks
        self.ready: deque[Lane] = deque(lanes)
        self._next_wid = 0
        # Scheduler observability (see repro.obs): dispatch counts and
        # busy spans per slot, pool churn, and queue-depth high
        # water marks, folded into report.metrics["scheduler"].
        self._dispatched = 0
        self._batch_groups = 0
        self._batched_cells = 0
        self._busy_s = 0.0
        self._assigned_at: dict[int, float] = {}
        self._spawned = 0
        self._reaped = 0
        self._max_ready = len(self.ready)
        self._max_inflight = 0
        self._started = time.monotonic()

    # -- pool -----------------------------------------------------------
    def _spawn(self) -> None:
        wid = self._next_wid
        self._next_wid += 1
        inbox = self.ctx.Queue()
        process = self.ctx.Process(
            target=_worker_main,
            args=(wid, inbox, self.results, self.supervisor),
            daemon=False,  # supervisors fork grandchildren
            name=f"sweep-worker-{wid}",
        )
        process.start()
        self.workers[wid] = _Worker(process, inbox)
        self.idle.append(wid)
        self._spawned += 1

    def _shutdown(self) -> None:
        if not self.pool_size:
            return
        for worker in self.workers.values():
            try:
                worker.inbox.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 10.0
        for worker in self.workers.values():
            worker.process.join(max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(1.0)
            worker.inbox.cancel_join_thread()
            worker.inbox.close()
        self.results.cancel_join_thread()
        self.results.close()
        self.workers.clear()

    # -- scheduling -----------------------------------------------------
    def _requeue(self, lane: Lane) -> None:
        """A lane with more to run re-enters the ready queue: at the
        back when workers run cells, so every lane gets a turn; at the
        front when the driver runs them itself, so ``jobs=1`` finishes
        one lane before starting the next and the ledger stays
        lane-major."""
        if self.pool_size:
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
        if len(self.ready) > self._max_ready:
            self._max_ready = len(self.ready)
        while self.idle and self.ready and not self.aborted:
            group = self._next_group()
            if not group:
                continue
            wid = self.idle.popleft()
            self.assigned[wid] = [cell for cell, _ in group]
            specs = [spec for _, spec in group]
            self._dispatched += len(group)
            if len(group) > 1:
                self._batch_groups += 1
                self._batched_cells += len(group)
            self._assigned_at[wid] = time.monotonic()
            if not self.pool_size:
                self.local = specs  # _drain runs it
                continue
            self.workers[wid].inbox.put(specs)
            if self.chaos is not None and \
                    self.chaos.kill_worker(specs[0].identity_hash()):
                # Injected scheduler-worker death right after dispatch;
                # _reap must turn this into a crash retry, not a hang.
                self.workers[wid].process.kill()
        if len(self.inflight) > self._max_inflight:
            self._max_inflight = len(self.inflight)

    def _drain(self, block: bool) -> list[tuple[int, list[dict]]]:
        """Completed dispatches as ``(slot, records)``.  Without a
        pool this is where the staged dispatch actually runs."""
        if not self.pool_size:
            specs, self.local = self.local, None
            return [(0, _run_dispatch(self.supervisor, specs))]
        batch: list[tuple[int, list[dict]]] = []
        if block:
            try:
                batch.append(self.results.get(timeout=self.poll_s))
            except queue.Empty:
                return batch
        while True:
            try:
                batch.append(self.results.get_nowait())
            except queue.Empty:
                return batch

    def _resolve(self, cell: str, record: dict) -> None:
        """Feed one verdict into its lane (and any parked duplicates)."""
        lane, spec = self.inflight.pop(cell)
        self.done[cell] = record
        status = record.get("status")
        if status == "ok":
            self.report.completed += 1
        elif status == "poisoned":
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
        """Route one verdict -- returned by a dispatch, or made up by
        :meth:`_reap` for a dead worker -- through the circuit breaker.

        Returns ``(record, retry)``.  A ``WorkerCrash`` below the
        breaker threshold is *intercepted*: the caller must requeue
        the cell instead of recording it -- crash verdicts never reach
        the ledger, so a resumed campaign re-runs them (the crash may
        have been environmental).  At the threshold the verdict is
        rewritten to a terminal ``poisoned`` record.
        """
        lane, spec = self.inflight[cell]
        if (record.get("status") == "ok"
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
        for wid, records in batch:
            cells = self.assigned.pop(wid, None)
            assigned_at = self._assigned_at.pop(wid, None)
            if assigned_at is not None:
                self._busy_s += time.monotonic() - assigned_at
            if wid in self.workers or not self.pool_size:
                self.idle.append(wid)
            if cells is None:
                continue  # late result from an already-reaped worker
            expected = set(cells)
            for record in records:
                cell = record.get("hash")
                if cell not in expected or cell not in self.inflight:
                    continue  # late record from a reaped dispatch
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
        if durable and self.chaos is not None:
            # Records above are durable; everything in driver memory
            # is what an injected crash here loses -- resume recovers.
            self.chaos.driver_batch_gate()

    def _reap(self) -> None:
        """Detect dead workers; their in-flight cells are committed as
        ``WorkerCrash`` verdicts (so: crash retry after a jittered
        backoff, or ``poisoned`` at the threshold) and the pool is
        refilled."""
        dead = [wid for wid, worker in self.workers.items()
                if not worker.process.is_alive()]
        if not dead:
            return
        # A worker may have shipped its result just before dying:
        # process anything already queued before declaring crashes.
        batch = self._drain(block=False)
        if batch:
            self._commit(batch)
        for wid in dead:
            worker = self.workers.pop(wid, None)
            if worker is None:
                continue
            self._reaped += 1
            try:
                self.idle.remove(wid)
            except ValueError:
                pass
            crashed = []
            for cell in self.assigned.get(wid, ()):
                if cell not in self.inflight:
                    continue
                _, spec = self.inflight[cell]
                crashed.append(Ledger.record_for(spec, _failed_result(
                    spec, WorkerCrash.__name__,
                    f"{spec.describe()}: scheduler worker {wid} (pid "
                    f"{worker.process.pid}) died with exit code "
                    f"{worker.process.exitcode}",
                )))
            self._commit([(wid, crashed)])
            self._spawn()
        self._pump()

    def _metrics(self) -> dict:
        """The scheduler's observability block: slot utilization,
        queue depths, pool churn.  Wall-clock derived, so explicitly
        outside the bit-identical-for-any-jobs contract (which covers
        the per-cell ``metrics`` blocks on ledger records)."""
        elapsed = time.monotonic() - self._started
        capacity = self.jobs * elapsed
        return {
            "mode": "parallel" if self.pool_size else "serial",
            "workers": self.jobs,
            "workers_spawned": self._spawned,
            "workers_reaped": self._reaped,
            "dispatched": self._dispatched,
            "busy_s": round(self._busy_s, 3),
            "wall_s": round(elapsed, 3),
            "utilization": round(self._busy_s / capacity, 4)
            if capacity > 0 else 0.0,
            "max_ready_lanes": self._max_ready,
            "max_inflight": self._max_inflight,
            "worker_respawns": max(0, self._spawned - self.pool_size),
            "worker_crash_retries": self.breaker.crash_retries,
            "breaker_trips": self.breaker.trips,
            "backoff_s": round(self.backoff.total_s, 3),
            "batch_groups": self._batch_groups,
            "batched_cells": self._batched_cells,
        }

    # -- main loop ------------------------------------------------------
    def run(self) -> None:
        try:
            for _ in range(self.pool_size):
                self._spawn()
            self._pump()
            while self.inflight:
                batch = self._drain(block=True)
                if batch:
                    self._commit(batch)
                    self._pump()
                else:
                    self._reap()
        finally:
            self._shutdown()
            _merge_scheduler_metrics(self.report, self._metrics())


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def execute_lanes(
    lanes: Iterable[Lane],
    *,
    supervisor,
    jobs: Optional[int] = 1,
    ledger: Optional[Ledger] = None,
    done: Optional[dict[str, dict]] = None,
    report=None,
    progress: Optional[Callable[[CellSpec, dict], None]] = None,
    prevalidate: bool = True,
    mp_context: Optional[str] = None,
    poll_s: float = POLL_S,
    chaos=None,
    failure_budget: Optional[float] = None,
) -> dict[str, dict]:
    """Run every lane to exhaustion; returns the records-by-hash map.

    ``supervisor`` (a :class:`~repro.harness.supervisor.RunSupervisor`,
    or anything with its ``run``/``run_batch``) runs each dispatch and
    stays the caller's to close.  ``jobs=1`` runs every dispatch on the
    calling process, one lane after the other.  ``jobs>1`` (or
    ``jobs=None``/``0`` for
    ``os.cpu_count()``) fans lanes out across worker processes;
    completion order then varies but the produced record set does
    not.  ``done`` (resumed records) is updated in place and returned.

    ``chaos`` is a driver-side
    :class:`~repro.harness.chaos.ChaosController` (duck typed --
    this module never imports the chaos layer); ``failure_budget`` is
    the campaign failure-rate ceiling (e.g. ``0.5``) past which the
    run aborts with ``report.aborted`` set instead of grinding
    through a doomed campaign.
    """
    lanes = [lane for lane in lanes if not lane.exhausted]
    if done is None:
        done = {}
    if report is None:
        from .sweep import SweepReport

        report = SweepReport()
    if not jobs:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(lanes)))
    if chaos is not None and _group_width(supervisor) > 1:
        # Mirrors the supervisor's own chaos x batched rejection: a
        # driver-side controller implies a chaos campaign, which must
        # run on the plain backend.
        raise ValueError(
            "chaos injection does not compose with the batched backend"
        )
    _Driver(
        lanes, jobs, supervisor, ledger, done, report, progress,
        prevalidate, mp_context, poll_s, chaos, failure_budget,
    ).run()
    return done
