"""Process-isolated, watchdogged execution of one sweep cell.

The supervisor is what lets a 41-configuration Pareto campaign survive
one pathological cell: each ``(config, workload, threads)`` runs in an
isolation child under a wall-clock watchdog, failures come back
classified (the :mod:`repro.sim.failures` taxonomy), and
budget-exhaustion failures are retried a bounded number of times with
escalated budgets before being recorded as failed.  A hung or crashed
child can never stall the driver: the watchdog kills it and the cell is
recorded as :class:`~repro.sim.failures.WatchdogTimeout` /
:class:`~repro.sim.failures.WorkerCrash`.

One supervisor owns one child, started at its first attempt and sent
one attempt after the other down a pipe; a child is replaced only when
the watchdog killed it or it died, so what starting one costs (the
fork, copy-on-write faults, cold caches) is paid once per campaign.
At ``--jobs N`` the scheduler holds N supervisors and waits on their
children's pipes itself (:class:`Dispatch`): the driver and N
isolation children are every process a campaign runs.

``isolation="inline"`` runs cells in-process (no watchdog, no kill
protection) for fast tests and interactive use.
"""

from __future__ import annotations

import copy
import math
import multiprocessing
import time
import weakref
from dataclasses import dataclass, field
from typing import Optional

from ..sim.failures import (
    SimulationDeadlock,
    WatchdogTimeout,
    WorkerCrash,
    is_transient,
)
from .spec import CellSpec

#: Default wall-clock allowance per attempt, chosen far above any
#: budgeted tiny/small-scale cell (seconds).
DEFAULT_TIMEOUT_S = 300.0

#: How a campaign runs its cells: ``plain`` runs each cell alone;
#: ``batched`` runs cells of one compiled workload as a batch group,
#: one after another in one attempt (:mod:`repro.sim.batched`).
#: Records are identical either way apart from wall-clock fields and
#: the ``backend`` annotation.
BACKENDS = ("plain", "batched")

#: Default cells per batch group.  Past ~16 the amortized per-cell
#: overhead flattens while a group that fails as a whole (a crash,
#: the watchdog) sends ever more cells back to the serial policy.
#: No test gates the value:
#: ``study_batched`` of ``bench/run.py`` measures the study at this
#: width against ``study_exhaustive``.
DEFAULT_BATCH_WIDTH = 16


def _cache_delta(before: dict, after: dict) -> dict:
    """Compile-cache activity attributable to one cell attempt."""
    return {
        "compile_cache_hits": after["hits"] - before["hits"],
        "compile_cache_misses": after["misses"] - before["misses"],
        "compile_cache_evictions":
            after["evictions"] - before["evictions"],
    }


def _success_payload(result, wall_s: float, cache_delta: dict) -> dict:
    """The flat, JSON-serialisable record of one completed cell.

    The ``metrics`` block carries the cell's observability series:
    wall time and event throughput (wall-clock, excluded from
    determinism guarantees) plus the deterministic simulation counters
    (events, cycles, dispatches, messages) that ``repro stats`` and
    :class:`~repro.harness.sweep.SweepReport` aggregate.
    """
    from ..obs.metrics import cell_metrics

    metrics = cell_metrics(result.stats, wall_s)
    metrics.update(cache_delta)
    return {
        "status": "ok",
        "aipc": result.aipc,
        "ipc": result.ipc,
        "cycles": result.cycles,
        "area_mm2": result.area_mm2,
        "dynamic_instructions": result.stats.dynamic_instructions,
        "alpha_instructions": result.stats.alpha_instructions,
        "metrics": metrics,
    }


def _compiled(spec: CellSpec):
    """The cell's program, from the per-process compile cache."""
    from ..sim.compile import get_compiled
    from ..workloads.registry import get

    threads = spec.threads if get(spec.workload).multithreaded else None
    return get_compiled(
        spec.workload, scale=spec.scale, threads=threads, k=spec.k,
        seed=spec.seed,
    )


def simulate_cell(spec: CellSpec):
    """Run one cell to completion in the current process: the one
    ``CellSpec -> SimulationResult`` function.  :func:`execute_cell`
    flattens the result into a ledger payload; a caller that wants it
    whole (the reproduction's single-cell memo) calls this directly.

    The outputs are checked against the memoised reference; failures
    propagate as taxonomy exceptions (``AssertionError`` for a wrong
    answer) for the caller to classify.
    """
    from ..core.processor import WaveScalarProcessor

    proc = WaveScalarProcessor(
        spec.config, max_cycles=spec.max_cycles,
        max_events=spec.max_events,
    )
    return proc.run_compiled(_compiled(spec))


def execute_cell(spec: CellSpec) -> dict:
    """:func:`simulate_cell`, timed, as the success payload
    (:func:`_success_payload`)."""
    from ..sim.compile import cache_info

    started = time.perf_counter()
    cache_before = cache_info()
    result = simulate_cell(spec)
    wall_s = time.perf_counter() - started
    return _success_payload(
        result, wall_s, _cache_delta(cache_before, cache_info())
    )


def execute_batch(specs: list[CellSpec]) -> list[dict]:
    """Run one batch group of cells through the batched engine in the
    current process, returning one payload per cell in order.

    Every spec must share the batched backend's *group key* -- the
    compiled-workload signature ``(workload, scale, threads, k,
    seed)``; the scheduler's grouping guarantees it.  Per-cell payloads
    are :func:`execute_cell`'s on success and :func:`_failure_payload`'s
    on failure, so the demultiplexed records are indistinguishable
    from serial ones apart from wall-clock fields.
    """
    from ..core.processor import WaveScalarProcessor, check_outputs
    from ..core.results import SimulationResult
    from ..sim.batched import BatchedEngine
    from ..sim.compile import cache_info
    from ..sim.engine import Engine

    if not specs:
        return []
    first = specs[0]
    for spec in specs:
        if (spec.workload, spec.scale, spec.threads, spec.k, spec.seed) \
                != (first.workload, first.scale, first.threads, first.k,
                    first.seed):
            raise ValueError(
                f"batch group mixes workload signatures: "
                f"{spec.describe()} vs {first.describe()}"
            )
    started = time.perf_counter()
    procs = []
    engines = []
    cache_deltas = []
    for spec in specs:
        # Looked up per cell, as execute_cell does: each cell's record
        # carries its own compile-cache delta.
        cache_before = cache_info()
        compiled = _compiled(spec)
        cache_deltas.append(_cache_delta(cache_before, cache_info()))
        proc = WaveScalarProcessor(
            spec.config, max_cycles=spec.max_cycles,
            max_events=spec.max_events,
        )
        placement = proc.place(compiled.graph)
        engines.append(Engine(
            compiled.graph, spec.config, placement,
            max_cycles=spec.max_cycles, max_events=spec.max_events,
            compiled=compiled.decoded,
        ))
        procs.append(proc)
    outcomes = BatchedEngine(engines).run(strict=True)
    wall_s = (time.perf_counter() - started) / len(specs)
    expected = compiled.expected_outputs()
    payloads: list[dict] = []
    for spec, proc, outcome, cache_delta in zip(
            specs, procs, outcomes, cache_deltas):
        if not outcome.ok:
            payloads.append(_failure_payload(outcome.error))
            continue
        result = SimulationResult(
            program=compiled.graph.name, config=spec.config,
            stats=outcome.stats, area=proc._area, timing=proc._timing,
            threads=compiled.threads,
        )
        try:
            check_outputs(compiled.name, result, expected)
        except AssertionError as error:
            payloads.append(_failure_payload(error))
            continue
        payloads.append(_success_payload(result, wall_s, cache_delta))
    return payloads


def _failure_payload(exc: BaseException) -> dict:
    """The classified failure dict for ``exc``, whichever process and
    isolation mode caught it."""
    if isinstance(exc, SimulationDeadlock):
        diagnostics = getattr(exc, "diagnostics", None)
        return {
            "status": "failed",
            "failure_class": type(exc).__name__,
            "failure_detail": str(exc).splitlines()[0] if str(exc) else "",
            "diagnostics": diagnostics.to_dict() if diagnostics else None,
        }
    return {
        "status": "failed",
        "failure_class": type(exc).__name__,
        "failure_detail": f"{type(exc).__name__}: {exc}",
        "diagnostics": None,
    }


def _child_main(spec: CellSpec) -> list[dict]:
    """One attempt of one cell, in-process or in the isolation child:
    its payload (as a list of one, the shape a batch group returns)."""
    try:
        return [execute_cell(spec)]
    except Exception as exc:  # noqa: BLE001 - classified either way
        return [_failure_payload(exc)]


def _batch_child_main(specs: list[CellSpec]) -> list[dict]:
    """One attempt over a batch group; per-cell payloads.

    A group-level failure (a broken placement, a refused engine)
    produces the same failure payload for every cell; the parent's
    per-cell fallback then re-runs each one under the full serial
    policy, so a batch can degrade but never wedge.
    """
    try:
        return execute_batch(specs)
    except Exception as exc:  # noqa: BLE001 - group-level failure
        return [dict(_failure_payload(exc)) for _ in specs]


#: The driver's end of the pipe of every isolation child it keeps.  A
#: child forked later inherits a copy of each; it closes them all, so
#: that every child reads end-of-file when the driver goes, however
#: many children the driver keeps.
_DRIVER_ENDS: weakref.WeakSet = weakref.WeakSet()


def _serve(conn) -> None:
    """The isolation child: answer each ``(child_main, args)`` job with
    its payload list until the driver hangs up.  The driver's ends of
    the pipes came along through fork; with them closed here, ``recv``
    reads end-of-file when the driver goes away, however it goes."""
    for end in _DRIVER_ENDS:
        end.close()
    try:
        while (job := conn.recv()) is not None:
            child_main, args = job
            conn.send(child_main(*args))
    except (EOFError, OSError):
        pass  # nobody left to answer


@dataclass
class CellResult:
    """The supervisor's verdict on one cell (after retries)."""

    spec: CellSpec  # the final spec attempted (post-escalation)
    status: str  # "ok" | "failed" | "poisoned"
    attempts: int = 1
    retries: int = 0
    wall_s: float = 0.0
    outcome: dict = field(default_factory=dict)  # success payload
    failure_class: Optional[str] = None
    failure_detail: Optional[str] = None
    diagnostics: Optional[dict] = None
    #: The engine backend *requested* for this cell (``None`` on
    #: results built before the registry existed).  Deliberately the
    #: requested backend, not the one that happened to execute: the
    #: recorded value is then a pure function of the campaign
    #: arguments, identical for any jobs value or batch interleaving.
    backend: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def aipc(self) -> float:
        return self.outcome.get("aipc", 0.0)


class RunSupervisor:
    """Executes cells with isolation, a watchdog, and retry policy.

    The policy is written once, as generators (:meth:`_cell`,
    :meth:`_group`) that yield each attempt and receive its payloads.
    :meth:`run` and :meth:`run_batch` drive one to the end;
    :meth:`start` returns it as a :class:`Dispatch` for the scheduler to
    wait on beside others.  The one piece of state is the handle on the
    idle isolation child, so an instance runs one attempt at a time; a
    ``--jobs`` slot is a :meth:`spare`.  Whoever runs a campaign calls
    :meth:`close` when it ends.
    """

    def __init__(
        self,
        timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
        max_retries: int = 2,
        escalation: float = 4.0,
        isolation: str = "process",
        mp_context: Optional[str] = None,
        backend: str = "plain",
        batch_width: int = DEFAULT_BATCH_WIDTH,
    ) -> None:
        if isolation not in ("process", "inline"):
            raise ValueError(f"unknown isolation {isolation!r}")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; valid backends: "
                + ", ".join(BACKENDS)
            )
        if timeout_s is not None and not 0 < timeout_s < math.inf:
            raise ValueError(
                f"timeout_s must be a positive number of seconds "
                f"(None: no watchdog), not {timeout_s!r}"
            )
        if escalation <= 1.0:
            raise ValueError("escalation factor must exceed 1")
        if batch_width < 1:
            raise ValueError("batch width must be at least 1")
        self.backend = backend
        self.batch_width = batch_width
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.escalation = escalation
        self.isolation = isolation
        if mp_context is None:
            # fork is near-free on Linux; fall back where unavailable.
            mp_context = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self.mp_context = mp_context
        self._ctx = multiprocessing.get_context(mp_context)
        #: ``(process, connection)`` of the idle child.
        self._child: Optional[tuple] = None

    def spare(self) -> "RunSupervisor":
        """The same policy without a child of its own yet."""
        spare = copy.copy(self)
        spare._child = None
        return spare

    # ------------------------------------------------------------------
    def run(self, spec: CellSpec) -> CellResult:
        """One cell through the full policy: attempt, classify, and
        retry transient budget failures with escalated budgets."""
        return self._finish(self._cell(spec))[0]

    def run_batch(self, specs: list[CellSpec]) -> list[CellResult]:
        """One batch group of cells through the batched backend,
        returning per-cell verdicts in order.

        The contract mirrors :meth:`run` cell for cell: a cell whose
        *batch* attempt fails -- its own simulation failure, a
        group-level crash, or the group watchdog -- has that verdict
        discarded and re-runs under the full serial policy (watchdog,
        budget escalation, retry accounting), so its final record is
        bit-identical to the plain backend's.  The discarded batch
        attempt is a scheduling dynamic: it is never counted in
        ``attempts``/``retries`` and never recorded in the ledger.

        The batch group's wall-clock allowance is ``timeout_s`` x
        the group width (a batch is one process doing the work of
        width serial attempts); a hung group is killed and every cell
        degrades to the per-cell path.
        """
        specs = list(specs)
        return self._finish(self._group(specs)) if specs else []

    def start(self, specs: list[CellSpec]) -> "Dispatch":
        """One dispatch -- :meth:`run` for one cell, :meth:`run_batch`
        for several -- with its first attempt sent and not awaited."""
        specs = list(specs)
        return Dispatch(self, self._cell(specs[0]) if len(specs) == 1
                        else self._group(specs))

    def _finish(self, policy) -> list[CellResult]:
        dispatch = Dispatch(self, policy)
        verdicts = dispatch.verdicts
        while verdicts is None:
            verdicts = dispatch.advance()
        return verdicts

    # -- the policy: yield (child_main, args, specs), receive payloads ---
    def _cell(self, spec: CellSpec):
        """One cell: attempt, classify, escalate, retry."""
        started = time.monotonic()
        attempts = 0
        while True:
            attempts += 1
            payload = (yield _child_main, (spec,), [spec])[0]
            if payload["status"] == "ok":
                return [CellResult(
                    spec=spec, status="ok", attempts=attempts,
                    retries=attempts - 1,
                    wall_s=time.monotonic() - started, outcome=payload,
                    backend=self.backend,
                )]
            failure_class = payload.get("failure_class", "WorkerCrash")
            if is_transient(failure_class) and \
                    attempts <= self.max_retries:
                # A bigger budget may complete; true deadlocks and
                # watchdog kills are not retried (deterministic or
                # already at the wall-clock limit).  A cell the engine
                # proved to be in a deflection fixed point cannot
                # complete either, but is retried all the same: the
                # engine jumps to the escalated budget in milliseconds,
                # and records keep their attempts, retries and
                # diagnostics byte for byte.
                spec = spec.escalated(self.escalation)
                continue
            return [CellResult(
                spec=spec, status="failed", attempts=attempts,
                retries=attempts - 1,
                wall_s=time.monotonic() - started,
                failure_class=failure_class,
                failure_detail=payload.get("failure_detail"),
                diagnostics=payload.get("diagnostics"),
                backend=self.backend,
            )]

    def _group(self, specs: list[CellSpec]):
        """One attempt over the group, then :meth:`_cell` for each cell
        it did not finish."""
        started = time.monotonic()
        payloads = yield _batch_child_main, (specs,), specs
        wall_s = (time.monotonic() - started) / len(specs)
        results = []
        for spec, payload in zip(specs, payloads):
            if payload.get("status") == "ok":
                results.append(CellResult(
                    spec=spec, status="ok", attempts=1, retries=0,
                    wall_s=wall_s, outcome=payload, backend="batched",
                ))
            else:
                # Per-cell degradation: the serial policy decides, so
                # the verdict matches a plain-backend run.
                (result,) = yield from self._cell(spec)
                result.backend = "batched"
                results.append(result)
        return results

    # -- the isolation child --------------------------------------------
    def _start_child(self) -> tuple:
        ours, theirs = self._ctx.Pipe()
        _DRIVER_ENDS.add(ours)
        process = self._ctx.Process(
            target=_serve, args=(theirs,), daemon=True,
        )
        process.start()
        theirs.close()  # the child holds the last copy: its death is our EOF
        return process, ours

    @staticmethod
    def _hang_up(process, conn) -> None:
        """Dismiss a child (idle, dead or killed) and reap it."""
        try:
            conn.send(None)
        except OSError:
            pass  # already gone
        _DRIVER_ENDS.discard(conn)
        conn.close()
        process.join()

    def close(self) -> None:
        """Hang up on the idle child and reap it, inside the caller's
        campaign so that the child's CPU time is counted with it.  The
        supervisor stays usable: the next attempt starts a fresh one."""
        child, self._child = self._child, None
        if child is not None:
            self._hang_up(*child)

    def _send(self, child_main, args: tuple) -> tuple:
        """The send half of one attempt: ``child_main(*args)`` goes
        down the idle child's pipe (a child is started if there is
        none), and the ``(process, connection)`` handle comes off the
        supervisor until :meth:`_receive` takes a clean answer."""
        process, conn = self._child or self._start_child()
        self._child = None
        try:
            conn.send((child_main, args))
        except OSError:
            # It died idle.  A child that never took the job says
            # nothing about the cell: replace it and send once more.
            self._hang_up(process, conn)
            process, conn = self._start_child()
            conn.send((child_main, args))
        return process, conn

    def _receive(self, process, conn, specs: list[CellSpec],
                 deadline: Optional[float]) -> list[dict]:
        """The receive half: one classified payload per cell of
        ``specs``.  An answer by ``deadline`` (monotonic; ``None`` is
        no watchdog) leaves the child idle for the next attempt; a
        silent child is killed (``WatchdogTimeout`` for every cell), one
        that hangs up is reaped (``WorkerCrash``), and neither is
        kept."""
        try:
            if conn.poll(None if deadline is None
                         else max(0.0, deadline - time.monotonic())):
                payloads = conn.recv()
                self._child = (process, conn)
                return payloads
            process.kill()
            failure = WatchdogTimeout
        except (EOFError, OSError):  # hung up on us mid-attempt
            failure = WorkerCrash
        self._hang_up(process, conn)
        if failure is WatchdogTimeout:
            detail = (f"no result within {self.timeout_s * len(specs)}s; "
                      f"worker killed")
        else:
            detail = f"worker exited {process.exitcode} without a result"
        return [
            {"status": "failed", "failure_class": failure.__name__,
             "failure_detail": f"{spec.describe()}: {detail}",
             "diagnostics": None}
            for spec in specs
        ]


class Dispatch:
    """One dispatch in flight (:meth:`RunSupervisor.start`): its policy
    and the attempt the policy waits on -- ``conn``, the isolation
    child's pipe, and ``deadline``, when its watchdog fires (monotonic;
    ``None`` for no watchdog).  Call :meth:`advance` once ``conn`` is
    ready or the deadline has passed; ``verdicts`` is the
    :class:`CellResult` list once the policy is done.  Under
    ``isolation="inline"`` every attempt runs as it is made, so the
    verdicts are there at once."""

    def __init__(self, supervisor: RunSupervisor, policy) -> None:
        self._supervisor = supervisor
        self._policy = policy
        self.verdicts: Optional[list[CellResult]] = None
        self._step(None)

    def _step(self, payloads: Optional[list[dict]]) -> None:
        """Feed ``payloads`` to the policy (``None`` starts it) and make
        its attempts until one is in a child or the policy is done."""
        supervisor = self._supervisor
        try:
            while True:
                child_main, args, self._specs = self._policy.send(payloads)
                if supervisor.isolation == "inline":
                    payloads = child_main(*args)
                    continue
                self._process, self.conn = supervisor._send(child_main, args)
                self.deadline = None if supervisor.timeout_s is None else (
                    time.monotonic()
                    + supervisor.timeout_s * len(self._specs))
                return
        except StopIteration as done:
            self.verdicts = done.value

    def advance(self) -> Optional[list[CellResult]]:
        """Take the attempt's answer (waiting for it, at most until the
        deadline), send the next attempt, and return the verdicts once
        there are no more, else ``None``."""
        if self.verdicts is None:
            self._step(self._supervisor._receive(
                self._process, self.conn, self._specs, self.deadline))
        return self.verdicts

    def cancel(self) -> None:
        """Kill the attempt in flight, if any, and reap its child."""
        if self.verdicts is None:
            self._process.kill()
            self._supervisor._hang_up(self._process, self.conn)
