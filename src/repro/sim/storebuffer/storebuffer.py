"""The wave-ordered store buffer (Section 3.3.1).

One store buffer per cluster.  It receives memory-request messages from
PEs (via their domain's MEM pseudo-PE), reconstructs program order from
the ``<prev, this, next>`` annotations, and issues operations to the
local L1 in that order.

Key behaviours reproduced from the paper:

* **Wave sequencing** -- all memory requests of a wave are managed by
  one buffer; waves of a thread issue strictly in order, with up to
  ``storebuffer_waves`` (4) waves in flight at once.
* **Ripple resolution** -- an operation may issue when its ``prev``
  names the last issued operation, or when the last issued operation's
  ``next`` names it (resolving '?' links across branches).
* **Store decoupling** -- store addresses and store data travel as
  separate messages.  A store whose address is ready but whose data is
  missing is parked in a *partial store queue* (2 queues of 4 entries);
  subsequent operations to the same address are captured in the queue,
  and everything drains when the data arrives.  When no partial store
  queue is free the chain stalls (the paper found 2 sufficient).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ...core.config import WaveScalarConfig
from ...isa.graph import DataflowGraph
from ...isa.token import Value
from ...isa.waves import UNKNOWN, WAVE_END, WAVE_START
from ..memory.hierarchy import MemoryHierarchy
from ..stats import SimStats


@dataclass(slots=True)
class MemOp:
    """One memory operation buffered in the ordering table."""

    inst_id: int
    thread: int
    wave: int
    seq: int
    prev: int
    next: int
    is_load: bool
    is_store: bool
    addr: Optional[int] = None
    data: Optional[Value] = None
    arrived: int = 0


@dataclass(slots=True)
class _WaveContext:
    """Ordering-table state for one (thread, wave)."""

    pending: dict[int, MemOp] = field(default_factory=dict)
    last_issued: int = WAVE_START
    last_next: int = UNKNOWN
    complete: bool = False
    #: Latest completion time of any performed op: the wave's
    #: *retirement* time, which gates k-loop bounding.
    max_done: int = 0


@dataclass(slots=True)
class _PartialStoreQueue:
    """A partial store queue: an address waiting for its store data,
    plus trailing same-address operations captured behind it."""

    addr: int
    waiting: MemOp | None = None
    captured: list[MemOp] = field(default_factory=list)


class StoreBuffer:
    """Wave-ordered store buffer for one cluster."""

    def __init__(
        self,
        cluster: int,
        config: WaveScalarConfig,
        graph: DataflowGraph,
        memory: MemoryHierarchy,
        stats: SimStats,
        complete_callback: Optional[
            Callable[[MemOp, Value, int], None]] = None,
        retire_callback: Optional[Callable[[int, int, int], None]] = None,
    ) -> None:
        """``complete_callback(op, value, cycle)`` delivers a finished
        operation's result; ``retire_callback(thread, wave, cycle)``
        announces wave retirement (used for k-loop bounding).  The
        engine leaves both unset here and wires them for the length of
        one run, so a finished engine holds no cycle through its store
        buffers."""
        self.cluster = cluster
        self.config = config
        self.graph = graph
        self.memory = memory
        self.stats = stats
        self._complete = complete_callback
        self._retire = retire_callback
        self._latency = config.storebuffer_latency
        self._window = config.storebuffer_waves
        # Operations a partial store queue captures behind its store.
        self._psq_capture = config.psq_entries - 1
        self._psq_limit = config.partial_store_queues
        self._contexts: dict[tuple[int, int], _WaveContext] = {}
        self._expected_wave: dict[int, int] = {}
        self._psqs: list[_PartialStoreQueue] = []
        # Stores that issued from the ordering table into a partial
        # store queue while still missing data, indexed by dynamic
        # identity so the late data message finds them.
        self._parked: dict[tuple[int, int, int], MemOp] = {}
        # Requests for waves beyond the ordering table's window
        # ("Each store buffer can handle four wave-ordered memory
        # sequences at once") wait here until the window slides.
        self._overflow: dict[int, list[tuple]] = {}
        # Static per-instruction decode for the request path:
        # inst_id -> (seq, prev, next, is_load, is_store).  Cached on
        # the graph because every store buffer of every cell sharing
        # that graph (a batch group, retry attempts) reads the same
        # rows; the Instruction/Opcode attribute chains are too slow
        # to walk once per memory operation.
        rows = getattr(graph, "_memop_rows", None)
        if rows is None:
            rows = {
                inst.inst_id: (
                    ann.this, ann.prev, ann.next,
                    inst.opcode.is_load, inst.opcode.is_store,
                )
                for inst in graph.instructions
                if (ann := inst.wave_annotation) is not None
            }
            graph._memop_rows = rows
        self._memop_rows = rows

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def _window_open(self, thread: int, wave: int) -> bool:
        """Whether ``wave`` fits the per-thread ordering window."""
        expected = self._expected_wave.get(thread, 0)
        return wave < expected + self._window

    def submit_address(
        self, inst_id: int, thread: int, wave: int, addr: Value, cycle: int
    ) -> None:
        """A load address, store address, or MEMORY_NOP trigger."""
        if not self._window_open(thread, wave):
            self._overflow.setdefault(thread, []).append(
                ("addr", inst_id, wave, addr)
            )
            self.stats.sb_window_stalls += 1
            return
        op = self._op_for(inst_id, thread, wave, cycle)
        op.addr = int(addr)
        self.stats.memory_ops += 1
        if op.is_load:
            self.stats.loads += 1
        elif op.is_store:
            self.stats.stores += 1
        self._pump(thread, cycle)

    def submit_data(
        self, inst_id: int, thread: int, wave: int, data: Value, cycle: int
    ) -> None:
        """The decoupled data half of a store.

        The matching address half may still be in the ordering table,
        or may already have issued into a partial store queue; the
        parked index covers the second case.
        """
        parked = self._parked.pop((inst_id, thread, wave), None)
        if parked is not None:
            parked.data = data
            for psq in self._psqs:
                if psq.waiting is parked:
                    self._drain_psq(psq, cycle)
                    break
            self._pump(thread, cycle)
            return
        if not self._window_open(thread, wave):
            self._overflow.setdefault(thread, []).append(
                ("data", inst_id, wave, data)
            )
            self.stats.sb_window_stalls += 1
            return
        op = self._op_for(inst_id, thread, wave, cycle)
        op.data = data
        self._pump(thread, cycle)

    def _op_for(
        self, inst_id: int, thread: int, wave: int, cycle: int
    ) -> MemOp:
        seq, prev, nxt, is_load, is_store = self._memop_rows[inst_id]
        ctx = self._contexts.get((thread, wave))
        if ctx is None:
            ctx = self._contexts[(thread, wave)] = _WaveContext()
        op = ctx.pending.get(seq)
        if op is None:
            op = MemOp(
                inst_id=inst_id,
                thread=thread,
                wave=wave,
                seq=seq,
                prev=prev,
                next=nxt,
                is_load=is_load,
                is_store=is_store,
                arrived=cycle,
            )
            ctx.pending[seq] = op
            self._expected_wave.setdefault(thread, 0)
        return op

    # ------------------------------------------------------------------
    # Ordering and issue
    # ------------------------------------------------------------------
    def _pump(self, thread: int, cycle: int) -> None:
        """Issue every operation that has become orderable."""
        while True:
            wave = self._expected_wave.get(thread, 0)
            ctx = self._contexts.get((thread, wave))
            if ctx is None:
                return
            progressed = self._issue_ready(ctx, cycle)
            if ctx.complete and not ctx.pending:
                del self._contexts[(thread, wave)]
                self._expected_wave[thread] = wave + 1
                self.stats.waves_retired += 1
                # Ordering (issue) of the next wave proceeds now, but
                # the wave only *retires* -- for k-loop bounding --
                # once all its memory operations have completed.
                self._retire(thread, wave, max(cycle, ctx.max_done))
                self._absorb_overflow(thread, cycle)
                continue
            if not progressed:
                return

    def _absorb_overflow(self, thread: int, cycle: int) -> None:
        """The ordering window slid: absorb waiting requests that now
        fit, iteratively (no recursion -- the caller's loop picks up
        any issue work).  Hardware NACKs and the sender retries;
        absorbing at the slide cycle is timing-equivalent."""
        queue = self._overflow.get(thread)
        if not queue:
            return
        still: list[tuple] = []
        for entry in queue:
            kind, inst_id, wave, value = entry
            if not self._window_open(thread, wave):
                still.append(entry)
                continue
            op = self._op_for(inst_id, thread, wave, cycle)
            if kind == "addr":
                op.addr = int(value)
                self.stats.memory_ops += 1
                if op.is_load:
                    self.stats.loads += 1
                elif op.is_store:
                    self.stats.stores += 1
            else:
                op.data = value
        self._overflow[thread] = still

    def _issue_ready(self, ctx: _WaveContext, cycle: int) -> bool:
        """Issue the wave's orderable operations in chain order until
        one must stall, none is orderable, or the wave is complete;
        True if any issued."""
        pending = ctx.pending
        psqs = self._psqs
        progressed = False
        while True:
            # The next orderable op: its address has arrived and the
            # chain reaches it (ripple resolution).
            last = ctx.last_issued
            for op in pending.values():
                if op.addr is None:
                    continue
                if last == WAVE_START:
                    if op.prev == WAVE_START:
                        break
                elif op.prev == last or ctx.last_next == op.seq:
                    break
            else:
                return progressed
            if not (op.is_load or op.is_store):
                # MEMORY_NOP: participates in ordering only; its
                # "address" is an arbitrary trigger value, so it must
                # never interact with the partial store queues.
                self._perform(op, cycle)
            else:
                # Same-address capture: ops behind a parked store join
                # its queue (the 2-entry associative table of Section
                # 3.3.1: one lookup per parked address).
                for psq in psqs:
                    if psq.addr == op.addr:
                        if len(psq.captured) >= self._psq_capture:
                            self.stats.psq_stalls += 1
                            return progressed
                        psq.captured.append(op)
                        self.stats.psq_captures += 1
                        if op.is_store and op.data is None:
                            self._parked[(op.inst_id, op.thread,
                                          op.wave)] = op
                        break
                else:
                    if op.is_store and op.data is None:
                        # Store decoupling: park in a fresh partial
                        # store queue.
                        if len(psqs) >= self._psq_limit:
                            self.stats.psq_stalls += 1
                            return progressed
                        psqs.append(_PartialStoreQueue(addr=op.addr,
                                                       waiting=op))
                        self._parked[(op.inst_id, op.thread, op.wave)] = op
                    else:
                        self._perform(op, cycle)
            del pending[op.seq]
            ctx.last_issued = op.seq
            ctx.last_next = op.next
            progressed = True
            if op.next == WAVE_END:
                ctx.complete = True
            if ctx.complete:
                return progressed

    def _drain_psq(self, psq: _PartialStoreQueue, cycle: int) -> None:
        """The missing data arrived; issue the whole queue in order.

        If a captured store is itself still missing its data, it
        re-parks as a fresh partial store queue and everything captured
        *behind* it transfers too -- all captured operations share one
        address, so per-address program order must be preserved.
        """
        self._psqs.remove(psq)
        assert psq.waiting is not None
        t = cycle
        self._perform(psq.waiting, t)
        for index, op in enumerate(psq.captured):
            if op.is_store and op.data is None:
                self._psqs.append(
                    _PartialStoreQueue(
                        addr=op.addr or 0,
                        waiting=op,
                        captured=list(psq.captured[index + 1:]),
                    )
                )
                return
            t += 1  # "issue all its requests in quick succession"
            self._perform(op, t)

    # ------------------------------------------------------------------
    # Cache access
    # ------------------------------------------------------------------
    def _perform(self, op: MemOp, cycle: int) -> int:
        """Issue one ordered operation to the cache hierarchy;
        returns its completion cycle."""
        sb_done = cycle + self._latency
        if op.is_store:
            assert op.addr is not None and op.data is not None
            done = self.memory.access(
                self.cluster, op.addr, is_store=True, cycle=sb_done
            )
            self.memory.write_word(op.addr, op.data)
            self._complete(op, op.data, done)
        elif op.is_load:
            assert op.addr is not None
            done = self.memory.access(
                self.cluster, op.addr, is_store=False, cycle=sb_done
            )
            value = self.memory.read_word(op.addr)
            self._complete(op, value, done)
        else:
            # MEMORY_NOP, the one memory op that neither loads nor
            # stores: it completes with its trigger value.
            self._complete(op, op.addr if op.addr is not None else 0,
                           sb_done)
            done = sb_done
        ctx = self._contexts.get((op.thread, op.wave))
        if ctx is not None and done > ctx.max_done:
            ctx.max_done = done
        return done

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stuck_report(self) -> str:
        lines = []
        for (thread, wave), ctx in sorted(self._contexts.items()):
            if not ctx.pending:
                continue
            ops = ", ".join(
                f"i{op.inst_id}<seq {seq}"
                f"{' no-addr' if op.addr is None else ''}"
                f"{' no-data' if op.is_store and op.data is None else ''}>"
                for seq, op in sorted(ctx.pending.items())
            )
            lines.append(
                f"  sb{self.cluster} thread {thread} wave {wave} "
                f"(expected {self._expected_wave.get(thread)}; last "
                f"{ctx.last_issued}): {ops}"
            )
        if self._psqs:
            lines.append(
                f"  sb{self.cluster} psqs: "
                + ", ".join(
                    f"addr {p.addr} waiting i{p.waiting.inst_id}"
                    for p in self._psqs if p.waiting is not None
                )
            )
        for thread, queue in sorted(self._overflow.items()):
            if queue:
                lines.append(
                    f"  sb{self.cluster} thread {thread}: {len(queue)} "
                    "requests beyond the wave window "
                    f"(expected {self._expected_wave.get(thread)})"
                )
        return "\n".join(lines)
