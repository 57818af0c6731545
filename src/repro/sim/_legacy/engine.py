"""Frozen pre-overhaul reference engine (regression oracle).

This is a verbatim snapshot of the engine as it stood before the
hot-path overhaul (compiled workloads, integer-tag dispatch,
matching-table fast paths).  It exists for two consumers:

* ``tests/sim/test_golden_stats.py`` asserts the production engine's
  ``SimStats``/AIPC are bit-identical to this reference across the
  full workload suite (the determinism guarantee of the overhaul);
* ``repro.fuzz.differential`` runs every fuzzed program on it as
  one of the oracles the production engine must agree with.

Do not optimise or "fix" this module; it shares the unchanged
memory/network/store-buffer models with the production engine and
must keep producing the historical results.  The original docstring
follows.

The cycle-level simulation engine.

Executes a :class:`~repro.isa.DataflowGraph` on a configured WaveScalar
processor: PEs with banked matching tables and instruction stores,
pods/domains/clusters, the hierarchical interconnect, wave-ordered
store buffers, and the coherent cache hierarchy.

The engine is event-driven with exact bandwidth accounting: every
serialised resource (dispatch ports, result buses, NET pseudo-PEs,
mesh links, L1 ports, FPUs) is a reservation ledger, so work is
proportional to tokens in flight rather than cycles times PEs -- the
idle tiles of a 512-PE configuration cost nothing.  All latencies and
bandwidths come from :class:`~repro.core.config.WaveScalarConfig`
(paper Table 1).

Architectural results (OUTPUT values, final memory) are bit-identical
to the reference interpreter; the integration suite asserts this for
every workload.
"""

from __future__ import annotations

import heapq
import time
from typing import Optional

from ...core.config import WaveScalarConfig
from ...isa.graph import DataflowGraph
from ...isa.opcodes import Opcode
from ...isa.semantics import evaluate, steer_taken
from ...isa.token import Value
from ...place.placement import Placement
from ..failures import (
    CycleBudgetExhausted,
    EventBudgetExhausted,
    FailureDiagnostics,
    SimulationDeadlock,
    TrueDeadlock,
)
from ..memory.hierarchy import MemoryHierarchy
from ..network.topology import BandwidthLedger, Interconnect
from .istore import InstructionStore
from .matching import MatchingTable
from ..stats import SimStats
from ..storebuffer.storebuffer import MemOp, StoreBuffer

#: Event-calendar tag -> profile phase (repro.obs.profile.PHASES).
#: The finer stages (match, execute, deliver) are attributed by inner
#: hooks inside the handlers; stack-based self-time accounting in
#: PhaseProfile keeps the phases disjoint.
_TAG_PHASE = {
    "token": "input",
    "dispatch": "dispatch",
    "sbaddr": "memory",
    "sbdata": "memory",
    "ifetch": "other",
    "retire": "other",
}

__all__ = [
    "Engine",
    "SimulationDeadlock",
    "TrueDeadlock",
    "CycleBudgetExhausted",
    "EventBudgetExhausted",
    "FailureDiagnostics",
    "simulate",
]


class Engine:
    """One simulation run; construct and call :meth:`run`."""

    #: ALU/FPU evaluation, indirected so :meth:`_install_profile_hooks`
    #: can shadow it per instance with an "execute"-phase wrapper.
    _evaluate = staticmethod(evaluate)

    def __init__(
        self,
        graph: DataflowGraph,
        config: WaveScalarConfig,
        placement: Placement,
        max_cycles: int = 20_000_000,
        warm_caches: bool = True,
        max_events: int = 200_000_000,
    ) -> None:
        """``warm_caches`` pre-loads the program's initial data image
        into the L2 (when one exists), modelling the steady state the
        paper measures over long runs -- cold DRAM misses then occur
        only on configurations without an L2, reproducing the paper's
        large L2 effect (Table 5, configurations 1 vs 4).

        ``max_cycles`` bounds simulated time; ``max_events`` bounds
        *wall* time -- thrashing configurations generate many retry
        events per simulated cycle, so a cycle budget alone can take
        minutes to trip.  Exceeding either raises
        :class:`SimulationDeadlock`."""
        self.graph = graph
        self.config = config
        self.placement = placement
        self.max_cycles = max_cycles
        self.max_events = max_events
        self.stats = SimStats()
        self.network = Interconnect(config, self.stats)
        self.memory = MemoryHierarchy(
            config, self.network, self.stats, graph.initial_memory
        )
        if warm_caches and self.memory.l2 is not None:
            from ..memory.hierarchy import SHARED

            for word in graph.initial_memory:
                self.memory.l2.insert(self.memory.line_of(word), SHARED)
        self.storebuffers = [
            StoreBuffer(
                cluster=c,
                config=config,
                graph=graph,
                memory=self.memory,
                stats=self.stats,
                complete_callback=self._memory_complete,
                retire_callback=self._wave_retired,
            )
            for c in range(config.clusters)
        ]

        n_pes = config.total_pes
        assigned = placement.assigned
        self.matching = [
            MatchingTable(
                config.matching_entries,
                config.matching_associativity,
                config.matching_banks,
                config.matching_hash_k,
            )
            for _ in range(n_pes)
        ]
        self.istores = [
            InstructionStore(config.virtualization, assigned.get(pe, []))
            for pe in range(n_pes)
        ]
        self._dispatch = [BandwidthLedger(1) for _ in range(n_pes)]
        n_domains = config.clusters * config.domains_per_cluster
        self._fpu = [BandwidthLedger(1) for _ in range(n_domains)]

        # Decoded-instruction arrays: the per-firing hot path reads
        # these flat lists instead of chasing Instruction/Opcode
        # attribute chains (the hardware analogue is the decoded
        # instruction store).
        self._d_arity = [inst.arity for inst in graph.instructions]
        self._d_opcode = [inst.opcode for inst in graph.instructions]
        self._d_slot = [
            placement.slot_of.get(inst.inst_id, 0)
            for inst in graph.instructions
        ]
        self._d_is_store = [
            inst.opcode is Opcode.STORE for inst in graph.instructions
        ]

        # Event calendar: (cycle, seq, handler_tag, payload).
        self._events: list = []
        self._seq = 0
        self._horizon = 0  # latest activity time seen

        # k-loop bounding state.
        self._retired: dict[int, int] = {}  # thread -> waves retired
        self._kbound_stalls: dict[int, list] = {}

        # Instruction fetches in flight: tokens for a non-resident
        # instruction queue here until the fetch completes (rather than
        # retrying blindly, which can livelock under heavy
        # over-subscription).
        self._ifetch: dict[tuple[int, int], list] = {}

        #: Optional execution trace (repro.sim.trace.Trace); attach
        #: before run().  None keeps the hot path branch-cheap.
        self.trace = None

        #: Optional hot-loop profiler (repro.obs.profile.PhaseProfile);
        #: attach before run() for per-phase cycle attribution
        #: (input/match/dispatch/execute/deliver/memory).  None runs
        #: the uninstrumented loop twin (_run_plain) with the profiled
        #: wrappers never installed, so the disabled path carries no
        #: hook code at all (benchmark-enforced <2% overhead).
        self.profile = None
        self._prof = None

        #: Optional fault-injection plan (repro.harness.faults
        #: .FaultPlan, duck-typed so the simulator stays free of
        #: harness imports); attach before run().  None keeps the hot
        #: path branch-cheap.
        self.faults = None

        #: Optional runtime sanitizer (repro.analysis.sanitize
        #: .RuntimeSanitizer, duck-typed like trace/faults); attach
        #: before run().  When set, the engine reports token
        #: creation/consumption and structure occupancy through its
        #: hooks and hands it the drained machine for a final audit.
        self.sanitizer = None
        self._fault_deliveries = 0
        self._events_processed = 0

    # ==================================================================
    # Event plumbing
    # ==================================================================
    def _post(self, cycle: int, tag: str, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._events, (cycle, self._seq, tag, payload))

    def _note_time(self, cycle: int) -> None:
        if cycle > self._horizon:
            self._horizon = cycle

    # ==================================================================
    # Main loop
    # ==================================================================
    def run(self, strict: bool = True) -> SimStats:
        faults = self.faults
        fault_sleep = 0.0
        if faults is not None:
            # Budget starvation: a fault plan may clamp the budgets to
            # force the exhaustion paths deterministically.
            if faults.max_cycles is not None:
                self.max_cycles = faults.max_cycles
            if faults.max_events is not None:
                self.max_events = faults.max_events
            fault_sleep = faults.wall_sleep_per_event_s
        for token in self.graph.entry_tokens:
            pe = self.placement.pe_of[token.inst]
            self._post(
                0, "token",
                (pe, token.thread, token.wave, token.inst, token.port,
                 token.value, False),
            )
        if self.sanitizer is not None:
            self.sanitizer.note_entry(len(self.graph.entry_tokens))
        events = self._events
        max_events = self.max_events
        prof = self._prof = self.profile
        if prof is None:
            processed = self._run_plain(events, max_events, fault_sleep)
        else:
            self._install_profile_hooks(prof)
            try:
                processed = self._run_profiled(
                    events, max_events, fault_sleep, prof
                )
            finally:
                self._uninstall_profile_hooks()

        self.stats.cycles = self._horizon
        self._events_processed = processed
        self.stats.events_processed = processed
        if self.sanitizer is not None:
            self.sanitizer.finalize(self)
        if strict:
            self._check_quiescent()
        return self.stats

    def _budget_stop(self, processed: int) -> FailureDiagnostics:
        """Final accounting on a budget-exhaustion raise path."""
        self._events_processed = processed
        self.stats.events_processed = processed
        return self.failure_diagnostics()

    def _run_plain(self, events, max_events: int,
                   fault_sleep: float) -> int:
        """The hot loop with zero instrumentation code.

        :meth:`_run_profiled` is its twin with phase attribution; the
        two must stay semantically identical --
        ``tests/obs/test_profile.py`` asserts their ASTs match once
        the profiling statements are stripped.
        """
        max_cycles = self.max_cycles
        processed = 0
        while events:
            cycle, _, tag, payload = heapq.heappop(events)
            if cycle > max_cycles:
                raise CycleBudgetExhausted(
                    f"{self.graph.name}: exceeded {max_cycles} cycles",
                    self._budget_stop(processed),
                )
            processed += 1
            if processed > max_events:
                raise EventBudgetExhausted(
                    f"{self.graph.name}: exceeded {max_events} events at "
                    f"cycle {cycle} (thrashing)",
                    self._budget_stop(processed),
                )
            if fault_sleep:
                time.sleep(fault_sleep)
            self._note_time(cycle)
            if tag == "token":
                self._on_token(cycle, *payload)
            elif tag == "dispatch":
                self._on_dispatch(cycle, *payload)
            elif tag == "sbaddr":
                sb, inst_id, thread, wave, value = payload
                sb.submit_address(inst_id, thread, wave, value, cycle)
            elif tag == "sbdata":
                sb, inst_id, thread, wave, value = payload
                sb.submit_data(inst_id, thread, wave, value, cycle)
            elif tag == "ifetch":
                self._on_ifetch(cycle, *payload)
            elif tag == "retire":
                self._on_retire(cycle, *payload)
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown event {tag}")
        return processed

    def _run_profiled(self, events, max_events: int, fault_sleep: float,
                      prof) -> int:
        """:meth:`_run_plain` with per-event phase attribution (the
        finer match/execute/deliver spans come from the wrappers that
        :meth:`_install_profile_hooks` shadowed in)."""
        max_cycles = self.max_cycles
        processed = 0
        while events:
            cycle, _, tag, payload = heapq.heappop(events)
            if cycle > max_cycles:
                raise CycleBudgetExhausted(
                    f"{self.graph.name}: exceeded {max_cycles} cycles",
                    self._budget_stop(processed),
                )
            processed += 1
            if processed > max_events:
                raise EventBudgetExhausted(
                    f"{self.graph.name}: exceeded {max_events} events at "
                    f"cycle {cycle} (thrashing)",
                    self._budget_stop(processed),
                )
            if fault_sleep:
                time.sleep(fault_sleep)
            self._note_time(cycle)
            prof.push(_TAG_PHASE.get(tag, "other"))
            if tag == "token":
                self._on_token(cycle, *payload)
            elif tag == "dispatch":
                self._on_dispatch(cycle, *payload)
            elif tag == "sbaddr":
                sb, inst_id, thread, wave, value = payload
                sb.submit_address(inst_id, thread, wave, value, cycle)
            elif tag == "sbdata":
                sb, inst_id, thread, wave, value = payload
                sb.submit_data(inst_id, thread, wave, value, cycle)
            elif tag == "ifetch":
                self._on_ifetch(cycle, *payload)
            elif tag == "retire":
                self._on_retire(cycle, *payload)
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown event {tag}")
            prof.pop()
        return processed

    def _install_profile_hooks(self, prof) -> None:
        """Shadow the hot-path callees with profiled wrappers.

        The shadows are *instance* attributes (and, for the matching
        tables, per-table attributes), so with profiling off the
        handlers run the original methods with no hook code at all --
        the <2% overhead contract of :mod:`repro.obs.profile` holds by
        construction.
        """
        deliver = self._deliver

        def profiled_deliver(*args, **kwargs):
            prof.push("deliver")
            try:
                deliver(*args, **kwargs)
            finally:
                prof.pop()

        self._deliver = profiled_deliver

        def profiled_evaluate(opcode, operands, immediate):
            prof.push("execute")
            try:
                return evaluate(opcode, operands, immediate)
            finally:
                prof.pop()

        self._evaluate = profiled_evaluate

        for table in self.matching:
            def profiled_insert(*args, _insert=table.insert, **kwargs):
                prof.push("match")
                try:
                    return _insert(*args, **kwargs)
                finally:
                    prof.pop()

            table.insert = profiled_insert

    def _uninstall_profile_hooks(self) -> None:
        self.__dict__.pop("_deliver", None)
        self.__dict__.pop("_evaluate", None)
        for table in self.matching:
            table.__dict__.pop("insert", None)

    def failure_diagnostics(self) -> FailureDiagnostics:
        """A structured snapshot of buffered work, attached to every
        engine-raised failure (and cheap enough to call ad hoc)."""
        matching_rows = sum(
            len(table.pending_rows()) for table in self.matching
        )
        ifetch_queued = sum(len(q) for q in self._ifetch.values())
        kbound = sum(len(s) for s in self._kbound_stalls.values())
        return FailureDiagnostics(
            cycles=self._horizon,
            events_processed=self._events_processed,
            events_pending=len(self._events),
            tokens_in_flight=matching_rows + ifetch_queued,
            queue_depths={
                "matching_rows": matching_rows,
                "ifetch_queued": ifetch_queued,
                "kbound_stalls": kbound,
                "event_calendar": len(self._events),
            },
            max_cycles=self.max_cycles,
            max_events=self.max_events,
        )

    def _check_quiescent(self) -> None:
        problems = []
        for pe, table in enumerate(self.matching):
            rows = table.pending_rows()
            if rows:
                sample = ", ".join(
                    f"{r.key}(ports {sorted(r.ports)})" for r in rows[:4]
                )
                problems.append(f"  pe{pe}: {len(rows)} partial rows: "
                                f"{sample}")
        for sb in self.storebuffers:
            report = sb.stuck_report()
            if report:
                problems.append(report)
        for thread, stalls in self._kbound_stalls.items():
            if stalls:
                problems.append(
                    f"  thread {thread}: {len(stalls)} k-bound stalled "
                    "wave advances"
                )
        if problems:
            raise TrueDeadlock(
                f"{self.graph.name}: deadlocked with buffered work:\n"
                + "\n".join(problems[:12]),
                self.failure_diagnostics(),
            )

    # ==================================================================
    # Token arrival (INPUT + MATCH stages)
    # ==================================================================
    def _on_token(
        self,
        cycle: int,
        pe: int,
        thread: int,
        wave: int,
        inst_id: int,
        port: int,
        value: Value,
        local: bool,
    ) -> None:
        # Instruction-store residency check (re-binding on demand).
        istore = self.istores[pe]
        if istore.over_subscribed:
            if not istore.hit(inst_id):
                key = (pe, inst_id)
                queue = self._ifetch.get(key)
                payload = (pe, thread, wave, inst_id, port, value, local)
                if queue is None:
                    # Start the fetch; tokens park until it completes.
                    self._ifetch[key] = [payload]
                    self.stats.istore_misses += 1
                    self._post(
                        cycle + self.config.istore_miss_penalty,
                        "ifetch", key,
                    )
                else:
                    queue.append(payload)
                return
            self.stats.istore_hits += 1

        # Store decoupling: STORE operands go straight to DISPATCH, one
        # message each, no matching rendezvous (Section 3.3.1).
        if self._d_is_store[inst_id]:
            delay = 0 if (local and self.config.speculative_fire) \
                else self.config.match_to_dispatch_delay
            self._post(
                cycle + delay, "dispatch",
                (pe, thread, wave, inst_id, (port, value)),
            )
            return

        table = self.matching[pe]
        result = table.insert(
            (thread, wave, inst_id), port, value,
            self._d_slot[inst_id], self._d_arity[inst_id], cycle
        )
        if not result.accepted:
            # Bank conflict: the sender retries next cycle.
            self.stats.input_rejects += 1
            if self.trace is not None:
                self.trace.emit(cycle, "reject", pe, inst_id, thread, wave)
            self._post(
                cycle + 1, "token",
                (pe, thread, wave, inst_id, port, value, local),
            )
            return

        if self.trace is not None:
            self.trace.emit(cycle, "input", pe, inst_id, thread, wave,
                            f"port {port} = {value!r}")
        self.stats.matching_inserts += 1
        if self.sanitizer is not None:
            self.sanitizer.note_table_size(pe, len(table), table.entries)
        if result.miss:
            self.stats.matching_misses += 1
        if result.deflected:
            # The token itself takes the overflow round trip.
            if self.trace is not None:
                self.trace.emit(cycle, "overflow", pe, inst_id, thread,
                                wave, "deflected")
            self._post(
                cycle + self.config.overflow_penalty, "token",
                (pe, thread, wave, inst_id, port, value, False),
            )
            return
        if result.evicted is not None:
            # Victim tokens take a round trip through the in-memory
            # overflow table and re-arrive later.
            self.stats.matching_evictions += 1
            v = result.evicted
            for vport, vvalue in v.ports.items():
                self._post(
                    cycle + self.config.overflow_penalty, "token",
                    (pe, v.key[0], v.key[1], v.key[2], vport, vvalue,
                     False),
                )
        if result.fired is not None:
            row = result.fired
            ports = row.ports
            operands = tuple(
                ports[p] for p in range(self._d_arity[inst_id])
            )
            delay = 0 if (local and self.config.speculative_fire) \
                else self.config.match_to_dispatch_delay
            if delay == 0:
                self.stats.speculative_hits += 1
            if self.trace is not None:
                self.trace.emit(
                    cycle, "match", pe, inst_id, thread, wave,
                    "speculative" if delay == 0 else "",
                )
            self._post(
                cycle + delay, "dispatch",
                (pe, thread, wave, inst_id, operands),
            )

    def _on_ifetch(self, cycle: int, pe: int, inst_id: int) -> None:
        """An instruction fetch completed: bind it and replay the
        tokens that were waiting on it."""
        self.istores[pe].fill(inst_id)
        if self.trace is not None:
            self.trace.emit(cycle, "ifetch", pe, inst_id, -1, -1)
        queued = self._ifetch.pop((pe, inst_id), [])
        for payload in queued:
            # Replay through the normal path; the instruction is
            # resident now (it cannot be evicted before these tokens
            # are processed because eviction only happens on a fill,
            # and fills happen in later events).
            self._on_token(cycle, *payload)

    # ==================================================================
    # DISPATCH + EXECUTE + OUTPUT
    # ==================================================================
    def _on_dispatch(
        self,
        cycle: int,
        pe: int,
        thread: int,
        wave: int,
        inst_id: int,
        operands,
    ) -> None:
        opcode = self._d_opcode[inst_id]
        granted = self._dispatch[pe].reserve(cycle)
        exec_start = granted + 1
        if opcode.uses_fpu:
            domain = pe // self.config.pes_per_domain
            exec_start = self._fpu[domain].reserve(exec_start)
        done = exec_start + opcode.latency
        self._note_time(done)
        self.stats.dispatches += 1
        if self.sanitizer is not None:
            # STORE halves dispatch decoupled, one operand each; every
            # other opcode consumes its full matched operand set.
            self.sanitizer.note_consumed(
                1 if opcode is Opcode.STORE else self._d_arity[inst_id]
            )
        if self.trace is not None:
            self.trace.emit(granted, "dispatch", pe, inst_id, thread,
                            wave, opcode.name)
            self.trace.emit(done, "execute", pe, inst_id, thread, wave)

        # STORE: a decoupled half-operation (operands == (port, value)).
        inst = self.graph[inst_id]
        if opcode is Opcode.STORE:
            port, value = operands
            if port == 0:
                self.stats.dynamic_instructions += 1
                self.stats.alpha_instructions += 1
                self._send_memory_request(
                    pe, thread, wave, inst_id, value, done, is_data=False
                )
            else:
                self._send_memory_request(
                    pe, thread, wave, inst_id, value, done, is_data=True
                )
            return

        self.stats.dynamic_instructions += 1
        if opcode.alpha_equivalent:
            self.stats.alpha_instructions += 1

        if opcode.is_memory:  # LOAD / MEMORY_NOP
            self._send_memory_request(
                pe, thread, wave, inst_id, operands[0], done, is_data=False
            )
            return

        if opcode is Opcode.OUTPUT:
            self.stats.outputs.setdefault(inst_id, []).append(operands[0])
            return

        if opcode is Opcode.THREAD_HALT:
            return

        value = self._evaluate(opcode, operands, inst.immediate)

        if opcode is Opcode.STEER:
            dests = inst.dests if steer_taken(operands) else inst.false_dests
            self._deliver(pe, dests, thread, wave, value, done,
                          bypass_from=granted)
            return

        if opcode is Opcode.WAVE_ADVANCE:
            self._advance_wave(pe, inst, thread, wave, value, done)
            return

        if opcode is Opcode.THREAD_SPAWN:
            assert inst.immediate is not None
            self._deliver(
                pe, inst.dests, int(inst.immediate), 0, value, done
            )
            return

        self._deliver(pe, inst.dests, thread, wave, value, done,
                      bypass_from=granted)

    # ==================================================================
    # Wave advance with k-loop bounding
    # ==================================================================
    def _advance_wave(
        self, pe: int, inst, thread: int, wave: int, value: Value, done: int
    ) -> None:
        out_wave = wave + 1
        k = inst.immediate
        if k is not None:
            needed = out_wave - int(k)
            if self._retired.get(thread, 0) < needed:
                self._kbound_stalls.setdefault(thread, []).append(
                    (needed, pe, inst.inst_id, thread, out_wave, value,
                     done)
                )
                return
        self._deliver(pe, inst.dests, thread, out_wave, value, done)

    def _wave_retired(self, thread: int, wave: int, cycle: int) -> None:
        """Store-buffer callback: the wave completes at ``cycle``
        (possibly in the future -- retirement awaits the slowest memory
        operation), so the bookkeeping runs as an event then."""
        self._note_time(cycle)
        self._post(cycle, "retire", (thread, wave))

    def _on_retire(self, cycle: int, thread: int, wave: int) -> None:
        if wave + 1 > self._retired.get(thread, 0):
            self._retired[thread] = wave + 1
        stalls = self._kbound_stalls.get(thread)
        if not stalls:
            return
        still = []
        for entry in stalls:
            needed, pe, inst_id, th, out_wave, value, done = entry
            if self._retired[thread] >= needed:
                inst = self.graph[inst_id]
                self._deliver(
                    pe, inst.dests, th, out_wave, value,
                    max(done, cycle + 1),
                )
            else:
                still.append(entry)
        self._kbound_stalls[thread] = still

    # ==================================================================
    # Operand delivery
    # ==================================================================
    def _deliver(
        self, src_pe: int, dests, thread: int, wave: int, value: Value,
        cycle: int, bypass_from: Optional[int] = None,
    ) -> None:
        """Route the result to its consumers.

        ``bypass_from`` is the producer's dispatch cycle.  Pod-local
        consumers snoop the bypass network: with speculative fire the
        consumer dispatches one cycle behind the producer and reads the
        result *during* its EXECUTE stage (the appendix's Figure 9
        timeline), so its token is delivered a cycle before the result
        formally completes.
        """
        spec_pod = (
            bypass_from is not None and self.config.speculative_fire
        )
        faults = self.faults
        for dest in dests:
            dst_pe = self.placement.pe_of[dest.inst]
            if faults is not None and self._fault_drops(faults, dst_pe):
                if self.trace is not None:
                    self.trace.emit(cycle, "fault_drop", src_pe, dest.inst,
                                    thread, wave)
                if self.sanitizer is not None:
                    self.sanitizer.note_dropped()
                continue
            if self.sanitizer is not None:
                self.sanitizer.note_created()
            route = self.network.route(src_pe, dst_pe, cycle, "operand")
            arrive = cycle + route.latency
            if spec_pod and route.level == "pod":
                arrive = max(bypass_from + 1, cycle - 1)
            if self.trace is not None:
                self.trace.emit(
                    cycle, "output", src_pe, dest.inst, thread, wave,
                    f"{route.level} -> pe{dst_pe} "
                    f"(+{arrive - cycle})",
                )
            self._post(
                arrive, "token",
                (dst_pe, thread, wave, dest.inst, dest.port, value,
                 route.level == "pod"),
            )

    def _fault_drops(self, faults, dst_pe: int) -> bool:
        """Deterministic fault-injection filter for operand delivery:
        swallow tokens bound for a stalled PE, and every Nth delivery
        once ``drop_after`` deliveries have passed."""
        if faults.stall_pe is not None and dst_pe == faults.stall_pe:
            return True
        if faults.drop_every_n is not None:
            self._fault_deliveries += 1
            count = self._fault_deliveries
            if count > faults.drop_after and \
                    count % faults.drop_every_n == 0:
                return True
        return False

    # ==================================================================
    # Memory interface (MEM pseudo-PE <-> store buffer)
    # ==================================================================
    def _home_storebuffer(self, thread: int) -> StoreBuffer:
        cluster = self.placement.thread_home.get(thread, 0)
        return self.storebuffers[cluster]

    def _send_memory_request(
        self,
        pe: int,
        thread: int,
        wave: int,
        inst_id: int,
        value: Value,
        cycle: int,
        is_data: bool,
    ) -> None:
        sb = self._home_storebuffer(thread)
        src_cluster = pe // self.config.pes_per_cluster
        if src_cluster == sb.cluster:
            latency = self.config.cluster_latency
            self.stats.record_message("memory", "cluster", latency)
        else:
            latency = self.config.domain_latency + \
                self.network.route_clusters(src_cluster, sb.cluster, cycle)
        arrive = cycle + latency
        self._note_time(arrive)
        if self.trace is not None:
            self.trace.emit(
                cycle, "mem_req", pe, inst_id, thread, wave,
                f"{'data' if is_data else 'addr'} -> sb{sb.cluster}",
            )
        tag = "sbdata" if is_data else "sbaddr"
        self._post(arrive, tag, (sb, inst_id, thread, wave, value))

    def _memory_complete(self, op: MemOp, value: Value, cycle: int) -> None:
        """Store-buffer completion: deliver the result to consumers."""
        self._note_time(cycle)
        inst = self.graph[op.inst_id]
        if self.trace is not None:
            self.trace.emit(
                cycle, "mem_done", -1, op.inst_id, op.thread, op.wave,
                f"= {value!r}",
            )
        sb_cluster = self.placement.thread_home.get(op.thread, 0)
        for dest in inst.dests:
            if self.sanitizer is not None:
                self.sanitizer.note_created()
            dst_pe = self.placement.pe_of[dest.inst]
            dst_cluster = dst_pe // self.config.pes_per_cluster
            if dst_cluster == sb_cluster:
                latency = self.config.cluster_latency
                self.stats.record_message("memory", "cluster", latency)
            else:
                latency = self.network.route_clusters(
                    sb_cluster, dst_cluster, cycle
                ) + self.config.domain_latency
            self._post(
                cycle + latency, "token",
                (dst_pe, op.thread, op.wave, dest.inst, dest.port, value,
                 False),
            )


def simulate(
    graph: DataflowGraph,
    config: WaveScalarConfig,
    placement: Optional[Placement] = None,
    max_cycles: int = 20_000_000,
    strict: bool = True,
    warm_caches: bool = True,
    max_events: int = 200_000_000,
) -> SimStats:
    """Convenience wrapper: place (if needed) and run ``graph``."""
    if placement is None:
        from ...place.snake import place

        placement = place(graph, config)
    engine = Engine(
        graph, config, placement, max_cycles=max_cycles,
        warm_caches=warm_caches, max_events=max_events,
    )
    return engine.run(strict=strict)
