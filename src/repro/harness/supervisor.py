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

``isolation="inline"`` runs cells in-process (no watchdog, no kill
protection) for fast tests and interactive use.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
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
#: ``batched`` runs cells of one compiled workload as a lockstep batch
#: group (:mod:`repro.sim.batched`).  Records are identical either way
#: apart from wall-clock fields and the ``backend`` annotation.
BACKENDS = ("plain", "batched")

#: Default cells per lockstep batch group.  Past ~16 the amortized
#: per-cell overhead flattens while a single slow cell holds ever
#: more siblings at the lockstep ceiling.  No test gates the value:
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
    """Run one batch group of cells through the lockstep engine in the
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
    cache_before = cache_info()
    compiled = _compiled(first)
    procs = []
    engines = []
    for spec in specs:
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
    cache_delta = _cache_delta(cache_before, cache_info())
    expected = compiled.expected_outputs()
    payloads: list[dict] = []
    for spec, proc, outcome in zip(specs, procs, outcomes):
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


def _child_main(spec: CellSpec, sabotage) -> list[dict]:
    """One attempt of one cell, in-process or in the isolation child:
    its payload (as a list of one, the shape a batch group returns).

    ``sabotage`` is an optional chaos-layer
    :class:`~repro.harness.chaos.Sabotage` decided by the *parent*;
    the child applies it blindly (sleep, die) so no chaos logic or
    RNG state ever runs worker-side.
    """
    if sabotage is not None:
        sabotage.apply()
    try:
        return [execute_cell(spec)]
    except Exception as exc:  # noqa: BLE001 - classified either way
        return [_failure_payload(exc)]


def _batch_child_main(specs: list[CellSpec]) -> list[dict]:
    """One lockstep attempt over a batch group; per-cell payloads.

    A group-level failure (a broken placement, a refused engine)
    produces the same failure payload for every cell; the parent's
    per-cell fallback then re-runs each one under the full serial
    policy, so a batch can degrade but never wedge.
    """
    try:
        return execute_batch(specs)
    except Exception as exc:  # noqa: BLE001 - group-level failure
        return [dict(_failure_payload(exc)) for _ in specs]


def _serve(conn, drivers_end, keep: bool) -> None:
    """The isolation child: answer each ``(child_main, args)`` job with
    its payload list until the driver hangs up.  The driver's end of
    the pipe came along through fork; with it closed here, ``recv``
    reads end-of-file when the driver goes away, however it goes.
    A child that serves one job (a batch group) disables the cyclic GC:
    its state is dropped wholesale at process exit, and a collection
    pause mid-drain would only add jitter to every cell of the group."""
    drivers_end.close()
    if not keep:
        gc.disable()
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
    #: Attempts lost to chaos-injected faults.  Excluded from
    #: ``retries`` so a chaos campaign's retry accounting aggregates
    #: bit-identically to an undisturbed run.
    injected: int = 0
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

    @property
    def metrics(self) -> dict:
        """The cell's observability block (wall time, event
        throughput, deterministic simulation counters); empty for
        failed cells."""
        return self.outcome.get("metrics", {})

    @property
    def events_per_s(self) -> float:
        """Simulation event throughput of the successful attempt."""
        return self.metrics.get("events_per_s", 0.0)


class RunSupervisor:
    """Executes cells with isolation, a watchdog, and retry policy.

    The one piece of state is the handle on the isolation child, so
    an instance runs one attempt at a time.  The handle belongs to the
    process that started the child: a copy that wakes up elsewhere --
    forked into a scheduler worker, or unpickled -- forgets it and
    starts a child of its own, which is what lets the parallel
    scheduler hand the *same* policy object to every worker.  Whoever
    runs a campaign calls :meth:`close` when it ends.
    """

    def __init__(
        self,
        timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
        max_retries: int = 2,
        escalation: float = 4.0,
        isolation: str = "process",
        mp_context: Optional[str] = None,
        chaos=None,
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
        if escalation <= 1.0:
            raise ValueError("escalation factor must exceed 1")
        if batch_width < 1:
            raise ValueError("batch width must be at least 1")
        self.backend = backend
        if chaos is not None and self.backend == "batched":
            # A sabotage decided for one cell would disturb its whole
            # batch group -- the chaos invariants are per-cell, so the
            # two layers do not compose.
            raise ValueError(
                "chaos injection does not compose with the batched "
                "backend; run chaos campaigns on the plain backend"
            )
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
        #: ``(owner pid, process, connection)`` of the idle child.
        self._child: Optional[tuple] = None
        #: Optional :class:`~repro.harness.chaos.ChaosPlan` (duck
        #: typed: anything with ``sabotage_for``/``selected``).  A
        #: frozen dataclass, so it pickles into scheduler workers with
        #: the supervisor.  Sabotage only engages under process
        #: isolation -- an inline SIGKILL would kill the driver.
        self.chaos = chaos

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Contexts are rebuilt by name; a child answers only its starter.
        return dict(self.__dict__, _ctx=None, _child=None)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._ctx = multiprocessing.get_context(self.mp_context)

    # ------------------------------------------------------------------
    def run(self, spec: CellSpec) -> CellResult:
        """One cell through the full policy: attempt, classify, and
        retry transient budget failures with escalated budgets.

        With a chaos plan attached, each attempt may carry an injected
        sabotage.  A *retryable* injected failure (one-shot kill or
        stall) is retried immediately on the same spec and counted in
        ``injected`` rather than ``retries`` -- the injection must
        never consume the real retry budget or escalate budgets, or a
        chaos run's verdicts would diverge from a clean run's.
        """
        started = time.monotonic()
        attempts = 0
        injected = 0
        while True:
            attempts += 1
            sabotage = None
            if self.chaos is not None and self.isolation == "process":
                sabotage = self.chaos.sabotage_for(spec, attempts)
            payload = self._dispatch(
                _child_main, (spec, sabotage), [spec]
            )[0]
            if payload["status"] == "ok":
                return CellResult(
                    spec=spec, status="ok", attempts=attempts,
                    retries=attempts - 1 - injected,
                    wall_s=time.monotonic() - started, outcome=payload,
                    injected=injected, backend=self.backend,
                )
            if sabotage is not None and sabotage.retryable:
                injected += 1
                continue
            failure_class = payload.get("failure_class", "WorkerCrash")
            if is_transient(failure_class) and \
                    attempts - injected <= self.max_retries:
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
            return CellResult(
                spec=spec, status="failed", attempts=attempts,
                retries=attempts - 1 - injected,
                wall_s=time.monotonic() - started,
                failure_class=failure_class,
                failure_detail=payload.get("failure_detail"),
                diagnostics=payload.get("diagnostics"),
                injected=injected, backend=self.backend,
            )

    def run_batch(self, specs: list[CellSpec]) -> list[CellResult]:
        """One batch group of cells through the lockstep backend,
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
        if self.chaos is not None:
            raise ValueError(
                "chaos injection does not compose with run_batch"
            )
        specs = list(specs)
        if not specs:
            return []
        if self.isolation == "process" and self.mp_context == "fork":
            self._warm_compile(specs[0])
        started = time.monotonic()
        # The one dispatch whose child does not outlive it: sixteen
        # engines are cyclic garbage nobody collects (see _serve).
        payloads = self._dispatch(
            _batch_child_main, (specs,), specs, keep=False
        )
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
                result = self.run(spec)
                result.backend = "batched"
                results.append(result)
        return results

    # ------------------------------------------------------------------
    @staticmethod
    def _warm_compile(spec: CellSpec) -> None:
        """Pre-build a batch group's compiled workload in *this*
        process: the child forked for the group, and for the workload's
        next group, inherits it copy-on-write.  (A single cell's child
        outlives it and keeps its own cache.)  Build failures are
        swallowed here: the attempt itself will hit the same error and
        classify it properly."""
        try:
            _compiled(spec)
        except Exception:  # noqa: BLE001 - deferred to the attempt
            pass

    def _start_child(self, keep: bool) -> tuple:
        ours, theirs = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_serve, args=(theirs, ours, keep), daemon=True,
        )
        process.start()
        theirs.close()  # the child holds the last copy: its death is our EOF
        return process, ours

    def _own_child(self) -> Optional[tuple]:
        """Take the idle child, if this process started it.  A handle
        inherited through fork is dropped without touching the child."""
        child, self._child = self._child, None
        return child[1:] if child and child[0] == os.getpid() else None

    @staticmethod
    def _hang_up(process, conn) -> None:
        """Dismiss a child (idle, dead or killed) and reap it."""
        try:
            conn.send(None)
        except OSError:
            pass  # already gone
        conn.close()
        process.join()

    def close(self) -> None:
        """Hang up on the idle child and reap it, inside the caller's
        campaign so that the child's CPU time is counted with it.  The
        supervisor stays usable: the next attempt starts a fresh one."""
        child = self._own_child()
        if child is not None:
            self._hang_up(*child)

    def _dispatch(self, child_main, args: tuple, specs: list[CellSpec],
                  keep: bool = True) -> list[dict]:
        """One attempt of ``child_main(*args)`` over ``specs`` (one
        cell, or one batch group); one classified payload per cell.
        Under process isolation the job goes down the pipe of an
        isolation child -- the supervisor's own, left idle for the next
        attempt (``keep``), or one that serves this job only -- and is
        awaited under the watchdog: a silent child is killed
        (``WatchdogTimeout`` for every cell), one that hangs up is
        reaped (``WorkerCrash``), and neither is kept."""
        if self.isolation == "inline":
            return child_main(*args)
        process, conn = \
            (keep and self._own_child()) or self._start_child(keep)
        try:
            conn.send((child_main, args))
        except OSError:
            # It died idle.  A child that never took the job says
            # nothing about the cell: replace it and send once more.
            self._hang_up(process, conn)
            process, conn = self._start_child(keep)
            conn.send((child_main, args))
        # None is no watchdog; a group gets len(specs) attempts' time.
        deadline = self.timeout_s and self.timeout_s * len(specs)
        try:
            if conn.poll(deadline):
                payloads = conn.recv()
                if keep:
                    self._child = (os.getpid(), process, conn)
                else:
                    self._hang_up(process, conn)
                return payloads
            process.kill()
            failure = WatchdogTimeout
        except (EOFError, OSError):  # hung up on us mid-attempt
            failure = WorkerCrash
        self._hang_up(process, conn)
        if failure is WatchdogTimeout:
            detail = f"no result within {deadline}s; worker killed"
        else:
            detail = f"worker exited {process.exitcode} without a result"
        return [
            {"status": "failed", "failure_class": failure.__name__,
             "failure_detail": f"{spec.describe()}: {detail}",
             "diagnostics": None}
            for spec in specs
        ]
