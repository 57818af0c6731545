"""The cycle-level simulation engine.

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

There is one hot path.  :meth:`Engine._drain` is the only event
loop, with the token arrival + matching probe inlined in it once
(serving single tokens, same-cycle token batches and the replay after
an instruction fetch); :meth:`Engine._make_dispatch`,
:meth:`Engine._make_deliver` and :meth:`Engine._make_memory` build the
run's DISPATCH/EXECUTE, OUTPUT and memory-interface stages as closures
over state hoisted once per run, and :meth:`Engine._end` drops them
when the run returns or raises, so a finished engine is freed by
reference count.  Whatever the caller attached before ``run()`` --
trace, sanitizer, :class:`~repro.obs.profile.PhaseProfile` -- is
served from that same code through ``if hook is not None:`` tests on
locals, behind one ``hooked`` test where several fire together;
nothing is installed, shadowed or selected.  The batched backend
(:mod:`repro.sim.batched`) calls the same ``_begin`` / ``_drain`` /
``_finish`` / ``_end`` for each cell of a group.

Hot-path engineering (the golden-stats suite proves against verdicts
recorded from runs without the fixed-point jump that none of it
changes a simulated result, and a replay of the trace through
:meth:`MatchingTable.insert` proves the inlined probe is that
table's rule):

* Calendar entries carry the integer tags of :mod:`repro.sim.events`;
  the loop handles token tags inline and dispatches the rest through
  ``self._handlers``, a table built once per run.
* Per-instruction decode comes from a :class:`~repro.sim.compile
  .CompiledGraph` (flat tuples indexed by ``inst_id``, plus one
  resolved evaluator per instruction), built on demand or passed in
  pre-built so sweeps pay for decoding once per workload instead of
  once per run.  A token arrival reads one column (``None`` for a
  STORE, the arity otherwise); a dispatch unpacks one four-field
  row.  The evaluator is the semantics table entry itself, called on
  the operand tuple: EXECUTE is one call.
* The matching probe reads each table's ``key -> ports`` dict and its
  per-set key lists; no row record is built per token.  A token's set
  is its instruction's precomputed set base plus its wave.  Bank
  claims are cycle stamps in one list per run, indexed ``pe * banks +
  bank``: a bank is taken when its stamp is the current cycle, so
  nothing is cleared and a rejected token touches no table.  A
  single-operand instruction never holds a row, so its token skips
  the row key and the probe.
* Same-cycle token fan-outs post as one ``EV_TOKEN_BATCH`` calendar
  entry; the loop unpacks them token by token, charging the event
  budget per token, so heap traffic shrinks but ``events_processed``,
  budget-raise points, and failure diagnostics stay bit-identical.
  The horizon moves once per bucket, whose entries all charge at its
  cycle.
* Routes are resolved once per run, not per token.  A consumer's PE
  and the network level to it are fixed by the placement, so OUTPUT
  reads a route table (:class:`_RouteTable`).  For each instruction,
  and in a second table for a STEER's false arm, it holds
  ``(dst_pe, dst_inst, port, level)`` tuples, with the level a small
  int.  A row is filled on the instruction's first delivery.  OUTPUT
  makes the result-bus reservation inline and posts its calendar
  batches inline.  DISPATCH reads each PE's dispatch-port and FPU
  reservation dicts from lists built once per run.
* The memory interface is two closures that count their messages
  inline.  ``send_memory`` is a MEM pseudo-PE's request to its
  thread's home store buffer, posted inline.  ``memory_complete`` is
  the store buffers' completion callback; it reads the same route
  table.
* The calendar is bucketed by cycle (dozens of events share a cycle
  in a busy run), so ordering costs two dict/list operations per
  event plus one heap operation per *cycle*, not two heap operations
  per event.
* The hottest counters live in locals and closure cells and reach
  ``self.stats`` on every exit from ``_drain``; nothing reads them
  mid-drain (failure diagnostics snapshot the horizon and queue
  depths only).

Architectural results (OUTPUT values, final memory) are bit-identical
to the reference interpreter; the integration suite asserts this for
every workload.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from ..core.config import WaveScalarConfig
from ..isa.graph import DataflowGraph
from ..isa.token import Value
from ..place.placement import Placement
from .compile import (
    CompiledGraph,
    K_ALU,
    K_HALT,
    K_MEMORY,
    K_OUTPUT,
    K_STEER,
    K_STORE,
    K_WAVE_ADVANCE,
    compile_graph,
)
from .events import (
    EV_DISPATCH,
    EV_IFETCH,
    EV_RETIRE,
    EV_SBADDR,
    EV_SBDATA,
    EV_TOKEN,
    EV_TOKEN_BATCH,
)
from .events import TAG_PHASES as _TAG_PHASE
from .failures import (
    CycleBudgetExhausted,
    EventBudgetExhausted,
    FailureDiagnostics,
    FixedPoint,
    SimulationDeadlock,
    TrueDeadlock,
)
from .memory.hierarchy import MemoryHierarchy
from .network.topology import BandwidthLedger, Interconnect
from .pe.istore import InstructionStore
from .pe.matching import MatchingTable
from .stats import LEVELS, SimStats
from .storebuffer.storebuffer import StoreBuffer

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

    def __init__(
        self,
        graph: DataflowGraph,
        config: WaveScalarConfig,
        placement: Placement,
        max_cycles: int = 20_000_000,
        warm_caches: bool = True,
        max_events: int = 200_000_000,
        compiled: Optional[CompiledGraph] = None,
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
        :class:`SimulationDeadlock`.

        ``compiled`` is the graph's pre-built flat decode (see
        :mod:`repro.sim.compile`); when omitted the engine compiles the
        graph itself.  A supplied decode must belong to ``graph``."""
        if compiled is None:
            compiled = compile_graph(graph)
        elif compiled.graph is not graph:
            raise ValueError("compiled decode belongs to a different graph")
        self.graph = graph
        self.config = config
        self.placement = placement
        self.max_cycles = max_cycles
        self.max_events = max_events
        self.decoded = compiled
        self.stats = SimStats()
        self.network = Interconnect(config, self.stats)
        self.memory = MemoryHierarchy(
            config, self.network, self.stats, graph.initial_memory
        )
        if warm_caches and self.memory.l2 is not None:
            from .memory.hierarchy import SHARED

            for word in graph.initial_memory:
                self.memory.l2.insert(self.memory.line_of(word), SHARED)
        self.storebuffers = [
            StoreBuffer(
                cluster=c,
                config=config,
                graph=graph,
                memory=self.memory,
                stats=self.stats,
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
        # these flat tuples instead of chasing Instruction/Opcode
        # attribute chains (the hardware analogue is the decoded
        # instruction store).  All but the placement-dependent slot
        # column come straight from the (shareable) CompiledGraph.
        self._d_match = compiled.match_arity
        self._d_dests = compiled.dests
        self._d_false_dests = compiled.false_dests
        self._d_imm = compiled.immediate
        self._d_row = compiled.rows
        slot_of = placement.slot_of
        self._d_slot = [
            slot_of.get(inst.inst_id, 0) for inst in graph.instructions
        ]
        # The slot's part of each instruction's matching-table set
        # (MatchingTable.set_index): ``(slot % groups) * k``, to which
        # a token adds ``wave % k`` -- or, in a table smaller than one
        # group, the slot itself, to which it adds the wave mod sets.
        # Every PE's table has the one config's geometry.
        t0 = self.matching[0]
        self._d_set_base = [
            (slot % t0._groups) * t0.hash_k if t0._groups >= 1 else slot
            for slot in self._d_slot
        ]

        # Config scalars the per-token path reads, hoisted out of the
        # config object once.
        self._match_delay = config.match_to_dispatch_delay
        self._spec_fire = config.speculative_fire
        self._overflow_penalty = config.overflow_penalty
        self._istore_penalty = config.istore_miss_penalty
        self._pes_per_domain = config.pes_per_domain
        self._pes_per_cluster = config.pes_per_cluster
        self._cluster_latency = config.cluster_latency
        self._domain_latency = config.domain_latency
        self._pe_of = placement.pe_of

        # Event calendar: a bucket per cycle (list of (tag, payload)
        # in post order, using the integer tags of repro.sim.events)
        # plus a min-heap of cycles that have a bucket.  Handlers only
        # ever post at or after the cycle being processed, so draining
        # the earliest bucket in insertion order replays exactly the
        # (cycle, seq) order of a flat event heap -- at two dict/list
        # ops per event instead of two O(log n) heap ops.
        self._buckets: dict[int, list] = {}
        self._cycle_heap: list = []
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
        #: (input/match/dispatch/execute/deliver/memory).  None costs
        #: one local ``is not None`` test per hook site.
        self.profile = None

        #: Optional runtime sanitizer (repro.analysis.sanitize
        #: .RuntimeSanitizer, duck-typed like trace); attach before
        #: run().  When set, the engine reports token
        #: creation/consumption and structure occupancy through its
        #: hooks and hands it the drained machine for a final audit.
        self.sanitizer = None
        self._events_processed = 0

        #: The deflection fixed point this run proved itself stuck in,
        #: if it did (see :meth:`_fixed_point`).
        self.fixed_point: Optional[FixedPoint] = None

    # ==================================================================
    # Event plumbing
    # ==================================================================
    def _post(self, cycle: int, tag: int, payload) -> None:
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [(tag, payload)]
            heappush(self._cycle_heap, cycle)
        else:
            bucket.append((tag, payload))

    def _post_tokens(self, cycle: int, payloads: list) -> None:
        """Post a run of same-arrival token payloads as one calendar
        entry.  The payloads were produced back-to-back by one
        handler, so their sequence numbers would have been consecutive
        anyway: no other event can order between them, and batching
        them is invisible to the simulation."""
        if len(payloads) == 1:
            entry = (EV_TOKEN, payloads[0])
        else:
            entry = (EV_TOKEN_BATCH, tuple(payloads))
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [entry]
            heappush(self._cycle_heap, cycle)
        else:
            bucket.append(entry)

    def _requeue_bucket(self, cycle: int, bucket: list, index: int,
                        batch_index: int) -> None:
        """Return a bucket's unprocessed tail to the calendar on a
        budget-raise path, so failure diagnostics count exactly the
        tokens an unbatched flat-heap engine would still have had
        queued.

        ``bucket[index]`` is the entry in flight, which the flat-heap
        engine had already popped: it is dropped -- except that if it
        is a token batch, only its token ``batch_index`` was consumed
        and the batch tail goes back.  Later entries of the same cycle
        (``bucket[index + 1:]``) were never reached and are restored
        ahead of anything a handler posted at this cycle meanwhile
        (which would have carried higher sequence numbers).
        """
        pending = []
        tag, payload = bucket[index]
        if tag == EV_TOKEN_BATCH:
            rest = payload[batch_index + 1:]
            if len(rest) == 1:
                pending.append((EV_TOKEN, rest[0]))
            elif rest:
                pending.append((EV_TOKEN_BATCH, rest))
        pending.extend(bucket[index + 1:])
        if pending:
            prior = self._buckets.get(cycle)
            if prior is None:
                self._buckets[cycle] = pending
                heappush(self._cycle_heap, cycle)
            else:
                prior[0:0] = pending

    def _note_time(self, cycle: int) -> None:
        if cycle > self._horizon:
            self._horizon = cycle

    # ==================================================================
    # Main loop
    # ==================================================================
    def run(self, strict: bool = True) -> SimStats:
        self._begin()
        try:
            return self._finish(self._drain(), strict)
        finally:
            self._end()

    def _begin(self) -> None:
        """Start the run: seed the calendar with the entry tokens, and
        build this run's route tables and its DISPATCH, OUTPUT and
        memory stages around whatever hooks the caller attached."""
        pe_of = self._pe_of
        for token in self.graph.entry_tokens:
            self._post(
                0, EV_TOKEN,
                (pe_of[token.inst], token.thread, token.wave, token.inst,
                 token.port, token.value, False),
            )
        if self.sanitizer is not None:
            self.sanitizer.note_entry(len(self.graph.entry_tokens))
        level_between = self.network.level_between
        self._routes = _RouteTable(self._d_dests, pe_of, level_between)
        self._false_routes = _RouteTable(
            self._d_false_dests, pe_of, level_between
        )
        # DISPATCH calls OUTPUT and the memory interface, so those are
        # built first.
        self._deliver, flush_deliver = self._make_deliver()
        send_memory, memory_complete, flush_memory = self._make_memory()
        on_dispatch, flush_dispatch = self._make_dispatch(send_memory)
        self._flushes = (flush_deliver, flush_memory, flush_dispatch)
        for sb in self.storebuffers:
            sb._complete = memory_complete
            sb._retire = self._wave_retired
        # Indexed by event tag.  Token tags and EV_IFETCH (which
        # replays parked tokens) are handled inline by _drain.
        self._handlers = (
            None,
            on_dispatch,
            self._on_sbaddr,
            self._on_sbdata,
            None,
            self._on_retire,
        )

    def _end(self) -> None:
        """Close the run, returned or raised: drop what ``_begin``
        made refer back to the engine -- the handler table, the stage
        closures, the store buffers' callbacks -- so a finished engine
        is freed by reference count instead of waiting for the cycle
        collector.  ``stats``, ``fixed_point`` and
        :meth:`failure_diagnostics` stay readable."""
        self._handlers = self._flushes = self._deliver = None
        for sb in self.storebuffers:
            sb._complete = sb._retire = None

    def _finish(self, processed: int, strict: bool) -> SimStats:
        """Final accounting once the calendar has drained."""
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

    def _events_exhausted(self, cycle: int, bucket: list, index: int,
                          batch_index: int, processed: int,
                          horizon: int) -> EventBudgetExhausted:
        """The event-budget failure for the entry in flight, with the
        bucket tail back on the calendar and the loop's running max
        folded in so the diagnostics see it.  ``horizon`` is that max
        from before the bucket: any charge of the bucket ahead of the
        one in flight had moved it to ``cycle``."""
        self._note_time(horizon)
        if index or batch_index:
            self._note_time(cycle)
        self._requeue_bucket(cycle, bucket, index, batch_index)
        return EventBudgetExhausted(
            f"{self.graph.name}: exceeded {self.max_events} events at "
            f"cycle {cycle} (thrashing)",
            self._budget_stop(processed),
        )

    def _drain(self) -> int:
        """The event loop: process calendar buckets until the calendar
        is empty and return the number of events processed.  It runs
        once per run.

        Drains one cycle bucket at a time in insertion (= posting)
        order.  Same-cycle events posted meanwhile land in a fresh
        bucket for this cycle and drain on the next outer iteration --
        after the current bucket, which is the sequence order a flat
        heap would have given them.

        The INPUT and MATCH stages are inlined here, once: an
        ``EV_TOKEN`` entry is a batch of one, an ``EV_TOKEN_BATCH``
        entry unpacks with the event budget charged per token exactly
        as if each token were its own calendar entry, and a completed
        ``EV_IFETCH`` replays its parked tokens through the same body
        uncharged (they were charged on arrival).  The matching probe
        is :meth:`MatchingTable.insert` inlined -- every table of one
        engine shares its hash geometry, hoisted below, and the bank
        claims of all of them are the run's one stamp list -- and must
        stay semantically identical to it: ``tests/sim/test_matching.py``
        replays a traced run's probes through that ``insert``.
        """
        buckets = self._buckets
        cycle_heap = self._cycle_heap
        max_cycles = self.max_cycles
        max_events = self.max_events
        handlers = self._handlers
        heap_pop = heappop
        heap_push = heappush
        ev_token = EV_TOKEN
        token_batch = EV_TOKEN_BATCH
        ev_dispatch = EV_DISPATCH
        ev_ifetch = EV_IFETCH
        tag_phase = _TAG_PHASE

        # Whatever the caller attached; None for each that is absent.
        trace = self.trace
        sanitizer = self.sanitizer
        prof = self.profile
        hooked = trace is not None or sanitizer is not None \
            or prof is not None

        stats = self.stats
        istores = self.istores
        matching = self.matching
        ifetch = self._ifetch
        post_tokens = self._post_tokens
        d_match = self._d_match
        set_base = self._d_set_base
        match_delay = self._match_delay
        spec_fire = self._spec_fire
        overflow_penalty = self._overflow_penalty
        istore_penalty = self._istore_penalty

        # Matching-table geometry: identical for every PE's table (all
        # are built from the one config), hoisted from table 0.
        t0 = matching[0]
        mt_k = t0.hash_k
        grouped = t0._groups >= 1
        mt_sets = t0.sets
        mt_banks = t0.banks
        mt_assoc = t0.associativity
        mt_entries = t0.entries
        # Each PE's rows (key -> ports) and sets (set -> resident keys).
        pe_rows = [t._rows for t in matching]
        pe_sets = [t._by_set for t in matching]
        # The cycle that last claimed each matching bank, indexed
        # ``pe * banks + bank``.  Cycles never decrease, so a stamp
        # equal to the cycle being drained means the bank is taken
        # this cycle.
        claims = [-1] * (len(matching) * mt_banks)

        # Per-PE over-subscription flags (fixed at construction) as one
        # flat list: the common case skips the InstructionStore object
        # entirely.
        istore_over = [s.over_subscribed for s in istores]

        # The activity horizon as a local running max, moved once per
        # bucket: every entry of a bucket is charged at its cycle.
        # Dispatch and memory handlers keep writing ``self._horizon``
        # directly; the true horizon is the max of both, restored on
        # every exit and -- because ``_budget_stop`` reads it -- before
        # each budget raise.
        horizon = self._horizon

        processed = 0
        istore_hits = istore_misses = input_rejects = 0
        matching_inserts = matching_misses = matching_evictions = 0
        speculative_hits = 0

        # Fixed-point detection, touched on the deflect branch only:
        # charged deflections, the cycle of the next look, and the
        # last look (see _fixed_point).
        deflections = 0
        fp_at = 0
        fp_seen = (0, -1, None)

        try:
            while cycle_heap:
                cycle = heap_pop(cycle_heap)
                bucket = buckets.pop(cycle)
                if cycle > max_cycles:
                    self._note_time(horizon)
                    self._requeue_bucket(cycle, bucket, 0, 0)
                    raise CycleBudgetExhausted(
                        f"{self.graph.name}: exceeded {max_cycles} cycles",
                        self._budget_stop(processed),
                    )
                before = horizon
                if cycle > horizon:
                    horizon = cycle
                for index, (tag, payload) in enumerate(bucket):
                    if tag == ev_token:
                        tokens = (payload,)
                    elif tag == token_batch:
                        tokens = payload
                    else:
                        processed += 1
                        if processed > max_events:
                            raise self._events_exhausted(
                                cycle, bucket, index, 0, processed, before
                            )
                        if prof is not None:
                            prof.push(tag_phase[tag])
                        if tag != ev_ifetch:
                            handlers[tag](cycle, payload)
                            if prof is not None:
                                prof.pop()
                            continue
                        # An instruction fetch completed: bind it and
                        # replay the tokens that were waiting on it.
                        # The instruction cannot be evicted before
                        # they are processed: eviction only happens on
                        # a fill, and fills happen in later events.
                        pe, inst_id = payload
                        istores[pe].fill(inst_id)
                        if trace is not None:
                            trace.emit(cycle, "ifetch", pe, inst_id, -1, -1)
                        tokens = ifetch.pop(payload, ())
                    charged = tag != ev_ifetch
                    first = processed + 1
                    for payload in tokens:
                        if charged:
                            # One "input" span per charged token: close
                            # the previous token's, open this one's.
                            if prof is not None and processed >= first:
                                prof.pop()
                            processed += 1
                            if processed > max_events:
                                raise self._events_exhausted(
                                    cycle, bucket, index, processed - first,
                                    processed, before,
                                )
                            if prof is not None:
                                prof.push("input")
                        pe, thread, wave, inst_id, port, value, local = \
                            payload
                        # Instruction-store residency check
                        # (re-binding on demand).
                        if istore_over[pe]:
                            if not istores[pe].hit(inst_id):
                                key = (pe, inst_id)
                                queue = ifetch.get(key)
                                if queue is None:
                                    # Start the fetch; tokens park
                                    # until it completes.
                                    ifetch[key] = [payload]
                                    istore_misses += 1
                                    at = cycle + istore_penalty
                                    b = buckets.get(at)
                                    if b is None:
                                        buckets[at] = [(ev_ifetch, key)]
                                        heap_push(cycle_heap, at)
                                    else:
                                        b.append((ev_ifetch, key))
                                else:
                                    queue.append(payload)
                                continue
                            istore_hits += 1

                        # Store decoupling: STORE operands go
                        # straight to DISPATCH, one message each,
                        # no matching rendezvous (Section 3.3.1).
                        arity = d_match[inst_id]
                        if arity is None:
                            delay = 0 if (local and spec_fire) \
                                else match_delay
                            at = cycle + delay
                            item = (ev_dispatch,
                                    (pe, thread, wave, inst_id,
                                     (port, value)))
                            b = buckets.get(at)
                            if b is None:
                                buckets[at] = [item]
                                heap_push(cycle_heap, at)
                            else:
                                b.append(item)
                            continue

                        # --- MatchingTable.insert, inlined ---
                        if prof is not None:
                            prof.push("match")
                        if grouped:
                            set_idx = set_base[inst_id] + wave % mt_k
                        else:
                            set_idx = (set_base[inst_id] + wave) % mt_sets
                        claim = pe * mt_banks + set_idx % mt_banks
                        if claims[claim] == cycle:
                            # Bank conflict: the sender retries
                            # next cycle.
                            if prof is not None:
                                prof.pop()
                            input_rejects += 1
                            if trace is not None:
                                trace.emit(cycle, "reject", pe,
                                           inst_id, thread, wave)
                            at = cycle + 1
                            b = buckets.get(at)
                            if b is None:
                                buckets[at] = [(ev_token, payload)]
                                heap_push(cycle_heap, at)
                            else:
                                b.append((ev_token, payload))
                            continue
                        claims[claim] = cycle
                        matching_inserts += 1
                        rows = pe_rows[pe]
                        # A single-operand instruction never holds a
                        # row, so only wider ones probe for one.
                        if arity > 1:
                            tkey = (thread, wave, inst_id)
                            ports = rows.get(tkey)
                        else:
                            ports = None
                        if ports is not None:
                            ports[port] = value
                            fired = len(ports) >= arity
                            if fired:
                                del rows[tkey]
                                pe_sets[pe][set_idx].remove(tkey)
                                if arity == 2:
                                    operands = (ports[0], ports[1])
                                else:
                                    operands = tuple(
                                        ports[p] for p in range(arity)
                                    )
                        else:
                            sets = pe_sets[pe]
                            ways = sets.get(set_idx)
                            if ways is not None and len(ways) >= mt_assoc:
                                # Oldest-first priority under
                                # thrashing: rank instances by
                                # (wave, thread, inst); evict the
                                # youngest resident row, or deflect
                                # the incoming token if it is
                                # itself the youngest.
                                matching_misses += 1
                                victim = ways[0]
                                vbest = (victim[1], victim[0], victim[2])
                                for rk in ways:
                                    rp = (rk[1], rk[0], rk[2])
                                    if rp > vbest:
                                        vbest = rp
                                        victim = rk
                                if (wave, thread, inst_id) >= vbest:
                                    # The token itself takes the
                                    # overflow round trip.
                                    if prof is not None:
                                        prof.pop()
                                    if trace is not None:
                                        trace.emit(
                                            cycle, "input", pe, inst_id,
                                            thread, wave,
                                            f"port {port} = {value!r}",
                                        )
                                        trace.emit(
                                            cycle, "overflow", pe,
                                            inst_id, thread, wave,
                                            "deflected",
                                        )
                                    if sanitizer is not None:
                                        sanitizer.note_table_size(
                                            pe, len(rows), mt_entries
                                        )
                                    at = cycle + overflow_penalty
                                    item = (ev_token,
                                            (pe, thread, wave, inst_id,
                                             port, value, False))
                                    b = buckets.get(at)
                                    if b is None:
                                        buckets[at] = [item]
                                        heap_push(cycle_heap, at)
                                    else:
                                        b.append(item)
                                    deflections += charged
                                    if cycle >= fp_at and tag == ev_token \
                                            and index + 1 == len(bucket):
                                        # The bucket is spent, so the
                                        # calendar is whole: look for
                                        # the fixed point, once a period.
                                        fp_seen, skipped = self._fixed_point(
                                            cycle, processed, deflections,
                                            fp_seen,
                                        )
                                        fp_at = fp_seen[0] + overflow_penalty
                                        processed += skipped
                                        deflections += skipped
                                    continue
                                # Victim tokens take a round trip
                                # through the in-memory overflow
                                # table and re-arrive later (all
                                # at the same cycle: one batch
                                # entry).
                                matching_evictions += 1
                                ways.remove(victim)
                                post_tokens(
                                    cycle + overflow_penalty,
                                    [
                                        (pe, victim[0], victim[1],
                                         victim[2], vport, vvalue, False)
                                        for vport, vvalue in
                                        rows.pop(victim).items()
                                    ],
                                )
                            fired = arity <= 1
                            if fired:
                                operands = (value,)
                            else:
                                rows[tkey] = {port: value}
                                if ways is None:
                                    sets[set_idx] = [tkey]
                                else:
                                    ways.append(tkey)
                        # --- end of the inlined insert ---
                        if hooked:
                            if prof is not None:
                                prof.pop()
                            if trace is not None:
                                trace.emit(cycle, "input", pe, inst_id,
                                           thread, wave,
                                           f"port {port} = {value!r}")
                            if sanitizer is not None:
                                sanitizer.note_table_size(
                                    pe, len(rows), mt_entries
                                )
                        if not fired:
                            continue

                        delay = 0 if (local and spec_fire) \
                            else match_delay
                        if delay == 0:
                            speculative_hits += 1
                        if trace is not None:
                            trace.emit(
                                cycle, "match", pe, inst_id, thread, wave,
                                "speculative" if delay == 0 else "",
                            )
                        at = cycle + delay
                        item = (ev_dispatch,
                                (pe, thread, wave, inst_id, operands))
                        b = buckets.get(at)
                        if b is None:
                            buckets[at] = [item]
                            heap_push(cycle_heap, at)
                        else:
                            b.append(item)
                    if prof is not None:
                        # The last token's span, or the fetch event's.
                        prof.pop()
        finally:
            self._note_time(horizon)
            stats.istore_hits += istore_hits
            stats.istore_misses += istore_misses
            stats.input_rejects += input_rejects
            stats.matching_inserts += matching_inserts
            stats.matching_misses += matching_misses
            stats.matching_evictions += matching_evictions
            stats.speculative_hits += speculative_hits
            for flush in self._flushes:
                flush()
        return processed

    def _fixed_point(self, cycle: int, processed: int, deflections: int,
                     seen: tuple) -> tuple:
        """Prove the deflection fixed point and jump over it (the
        argument is in DESIGN.md section 5).

        ``seen`` is the previous look: (cycle, charged events that
        were not deflections, calendar keyed by offset from that
        cycle).  A deflection changes only counters, the horizon and
        the token's own calendar slot, so if that count has not moved
        and the whole calendar sits where it sat, the machine repeats
        with that period for ever.  The cause goes on
        :attr:`fixed_point`; unless a per-event observer is attached,
        calendar, horizon and counters advance by every whole period
        both budgets still hold, and the ordinary loop runs the rest
        into the ordinary budget raise.  Returns this look and the
        events jumped over.
        """
        buckets = self._buckets
        quiet = processed - deflections
        image = None
        if quiet == seen[1]:
            image = {at - cycle: b[:] for at, b in buckets.items()}
        look = (cycle, quiet, image)
        period = cycle - seen[0]
        if image is None or image != seen[2] or not period:
            return look, 0
        tokens = [payload for b in buckets.values() for _, payload in b]
        if self.fixed_point is None:
            sets = {}
            for pe, _, wave, inst_id, *_ in tokens:
                table = self.matching[pe]
                set_idx = table.set_index(self._d_slot[inst_id], wave)
                sets[pe, set_idx] = tuple(
                    (key, tuple(sorted(table._rows[key])))
                    for key in table._by_set[set_idx]
                )
            self.fixed_point = FixedPoint(
                seen[0], period,
                tuple((pe, inst_id, thread, wave, port) for
                      pe, thread, wave, inst_id, port, *_ in tokens),
                sets,
            )
        periods = min((self.max_cycles - cycle) // period,
                      (self.max_events - processed) // len(tokens))
        if periods <= 0 or self.trace is not None \
                or self.sanitizer is not None:
            return look, 0
        shift = periods * period
        skipped = periods * len(tokens)
        moved = {at + shift: b for at, b in buckets.items()}
        buckets.clear()
        buckets.update(moved)
        # Adding a constant keeps the heap a heap.
        self._cycle_heap[:] = [at + shift for at in self._cycle_heap]
        self._note_time(cycle + shift)
        stats = self.stats
        stats.matching_inserts += skipped
        stats.matching_misses += skipped
        for pe, *_ in tokens:
            if self.istores[pe].over_subscribed:
                self.istores[pe].hits += periods
                stats.istore_hits += periods
        return (cycle + shift, quiet, image), skipped

    def failure_diagnostics(self) -> FailureDiagnostics:
        """A structured snapshot of buffered work, attached to every
        engine-raised failure (and cheap enough to call ad hoc)."""
        matching_rows = sum(
            len(table.pending_rows()) for table in self.matching
        )
        ifetch_queued = sum(len(q) for q in self._ifetch.values())
        kbound = sum(len(s) for s in self._kbound_stalls.values())
        # Count *tokens*, not calendar entries: a batch entry stands
        # for one event per carried token.
        events_pending = 0
        for bucket in self._buckets.values():
            for tag, payload in bucket:
                if tag == EV_TOKEN_BATCH:
                    events_pending += len(payload)
                else:
                    events_pending += 1
        return FailureDiagnostics(
            cycles=self._horizon,
            events_processed=self._events_processed,
            events_pending=events_pending,
            tokens_in_flight=matching_rows + ifetch_queued,
            queue_depths={
                "matching_rows": matching_rows,
                "ifetch_queued": ifetch_queued,
                "kbound_stalls": kbound,
                "event_calendar": events_pending,
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
    # DISPATCH + EXECUTE
    # ==================================================================
    def _make_dispatch(self, send_memory):
        """Build this run's ``EV_DISPATCH`` handler around the memory
        interface's request sender; returns it with the function that
        flushes its counters into ``self.stats``."""
        d_row = self._d_row
        decoded = self.decoded
        d_eval = decoded.evaluators
        pes_per_domain = self._pes_per_domain
        stats = self.stats
        outputs = stats.outputs
        deliver = self._deliver
        routes = self._routes
        false_routes = self._false_routes
        advance_wave = self._advance_wave
        ev_sbaddr = EV_SBADDR
        ev_sbdata = EV_SBDATA
        trace = self.trace
        sanitizer = self.sanitizer
        prof = self.profile
        hooked = trace is not None or sanitizer is not None
        # Every PE dispatch port and per-domain FPU is a
        # ``BandwidthLedger(1)``; the inlined reserves below hard-code
        # that width (a slot is free exactly when its cycle is absent)
        # and read each PE's two reservation dicts straight from lists.
        assert all(ledger.per_cycle == 1 for ledger in self._dispatch)
        assert all(ledger.per_cycle == 1 for ledger in self._fpu)
        dispatch_used = [ledger._used for ledger in self._dispatch]
        fpu_used = [
            self._fpu[pe // pes_per_domain]._used
            for pe in range(len(dispatch_used))
        ]
        n_dispatches = 0
        n_dynamic = 0
        n_alpha = 0

        def on_dispatch(cycle, payload):
            nonlocal n_dispatches, n_dynamic, n_alpha
            pe, thread, wave, inst_id, operands = payload
            kind, latency, uses_fpu, alpha = d_row[inst_id]
            used = dispatch_used[pe]
            granted = cycle
            while granted in used:
                granted += 1
            used[granted] = 1
            exec_start = granted + 1
            if uses_fpu:
                f_used = fpu_used[pe]
                while exec_start in f_used:
                    exec_start += 1
                f_used[exec_start] = 1
            done = exec_start + latency
            if done > self._horizon:
                self._horizon = done
            n_dispatches += 1
            if hooked:
                if sanitizer is not None:
                    # STORE halves dispatch decoupled, one operand
                    # each; every other opcode consumes its full
                    # matched operand set.
                    sanitizer.note_consumed(
                        1 if kind == K_STORE else decoded.arity[inst_id]
                    )
                if trace is not None:
                    trace.emit(granted, "dispatch", pe, inst_id, thread,
                               wave, decoded.opcode[inst_id].name)
                    trace.emit(done, "execute", pe, inst_id, thread, wave)

            if kind == K_ALU:  # the hottest case: plain ALU evaluation
                n_dynamic += 1
                if alpha:
                    n_alpha += 1
                if prof is None:
                    value = d_eval[inst_id](operands)
                else:
                    prof.push("execute")
                    value = d_eval[inst_id](operands)
                    prof.pop()
                deliver(pe, routes[inst_id], thread, wave, value, done,
                        granted)
                return

            # STORE: a decoupled half-operation
            # (operands == (port, value)).
            if kind == K_STORE:
                port, value = operands
                if port == 0:
                    n_dynamic += 1
                    n_alpha += 1
                    send_memory(pe, thread, wave, inst_id, value, done,
                                ev_sbaddr)
                else:
                    send_memory(pe, thread, wave, inst_id, value, done,
                                ev_sbdata)
                return

            n_dynamic += 1
            if alpha:
                n_alpha += 1

            if kind == K_MEMORY:  # LOAD / MEMORY_NOP
                send_memory(pe, thread, wave, inst_id, operands[0], done,
                            ev_sbaddr)
                return

            if kind == K_OUTPUT:
                outputs.setdefault(inst_id, []).append(operands[0])
                return

            if kind == K_HALT:
                return

            if prof is None:
                value = d_eval[inst_id](operands)
            else:
                prof.push("execute")
                value = d_eval[inst_id](operands)
                prof.pop()

            if kind == K_STEER:
                arm = routes if operands[1] else false_routes
                deliver(pe, arm[inst_id], thread, wave, value, done,
                        granted)
                return

            if kind == K_WAVE_ADVANCE:
                advance_wave(pe, inst_id, thread, wave, value, done)
                return

            # K_SPAWN: retag into the thread named by the immediate.
            imm = decoded.immediate[inst_id]
            assert imm is not None
            deliver(pe, routes[inst_id], int(imm), 0, value, done)

        def flush():
            nonlocal n_dispatches, n_dynamic, n_alpha
            stats.dispatches += n_dispatches
            stats.dynamic_instructions += n_dynamic
            stats.alpha_instructions += n_alpha
            n_dispatches = n_dynamic = n_alpha = 0

        return on_dispatch, flush

    # ==================================================================
    # OUTPUT: operand delivery
    # ==================================================================
    def _make_deliver(self):
        """Build this run's operand delivery; returns it with the
        function that flushes its counters into ``self.stats``."""
        spec_fire = self._spec_fire
        buckets = self._buckets
        cycle_heap = self._cycle_heap
        heap_push = heappush
        ev_token = EV_TOKEN
        token_batch = EV_TOKEN_BATCH
        trace = self.trace
        sanitizer = self.sanitizer
        prof = self.profile
        hooked = trace is not None or sanitizer is not None
        # Interconnect.route, inlined for the hottest caller (operand
        # delivery) down to the cluster level: the width-1 result-bus
        # reserve and the message counters.  The level comes from the
        # route table.  The grid level (mesh reservations) stays a
        # call -- it is both the rarest and the most stateful.
        net = self.network
        pod_latency = net._pod_route.latency
        assert all(ledger.per_cycle == 1 for ledger in net._pe_bus)
        bus_used = [ledger._used for ledger in net._pe_bus]
        net_in = net._net_in
        route_grid = net._route_grid
        pes_per_domain = self._pes_per_domain
        pes_per_cluster = self._pes_per_cluster
        domain_latency = self._domain_latency
        cluster_latency = self._cluster_latency
        stats = self.stats
        operand_counts = stats.messages["operand"]
        # Operand messages by level (a grid message counts itself in
        # route_grid) and the latency sum of the domain and cluster
        # ones; a pod message always books the pod latency.
        pod_messages = domain_messages = cluster_messages = 0
        latency_sum = 0

        def deliver(src_pe, route, thread, wave, value, cycle,
                    bypass_from=None):
            """Route the result to its consumers, ``route`` being the
            producer's row of a route table.

            ``bypass_from`` is the producer's dispatch cycle.
            Pod-local consumers snoop the bypass network: with
            speculative fire the consumer dispatches one cycle behind
            the producer and reads the result *during* its EXECUTE
            stage (the appendix's Figure 9 timeline), so its token is
            delivered a cycle before the result formally completes.

            Consecutive deliveries landing on the same arrival cycle
            fuse into one calendar entry, as in :meth:`_post_tokens`.
            """
            nonlocal pod_messages, domain_messages, cluster_messages
            nonlocal latency_sum
            if prof is not None:
                prof.push("deliver")
            spec_pod = bypass_from is not None and spec_fire
            batch = None
            batch_cycle = -1
            for dst_pe, dst_inst, port, level in route:
                if not level:  # pod
                    pod_messages += 1
                    pod_local = True
                    if spec_pod:
                        arrive = bypass_from + 1
                        if cycle - 1 > arrive:
                            arrive = cycle - 1
                    else:
                        arrive = cycle + pod_latency
                else:
                    pod_local = False
                    # Every other level leaves the PE on its result
                    # bus, one result per cycle.
                    used = bus_used[src_pe]
                    bus_granted = cycle
                    while bus_granted in used:
                        bus_granted += 1
                    used[bus_granted] = 1
                    if level == 3:  # grid: counts its own message
                        arrive = cycle + route_grid(
                            src_pe, dst_pe, src_pe // pes_per_cluster,
                            cycle, bus_granted, "operand",
                        ).latency
                    else:
                        if level == 1:  # domain
                            domain_messages += 1
                            arrive = bus_granted + domain_latency
                        else:
                            # Cluster: through the sender's NET
                            # pseudo-PE and the point-to-point link
                            # into the receiving domain's NET
                            # pseudo-PE (1 op/cycle inject).
                            cluster_messages += 1
                            arrive = net_in[
                                dst_pe // pes_per_domain
                            ].reserve(bus_granted + cluster_latency - 1) + 1
                        latency_sum += arrive - cycle
                if hooked:
                    if sanitizer is not None:
                        sanitizer.note_created()
                    if trace is not None:
                        trace.emit(
                            cycle, "output", src_pe, dst_inst, thread,
                            wave, f"{LEVELS[level]} -> pe{dst_pe} "
                            f"(+{arrive - cycle})",
                        )
                token = (dst_pe, thread, wave, dst_inst, port, value,
                         pod_local)
                if arrive == batch_cycle:
                    batch.append(token)
                    continue
                if batch is not None:
                    entry = (ev_token, batch[0]) if len(batch) == 1 \
                        else (token_batch, tuple(batch))
                    b = buckets.get(batch_cycle)
                    if b is None:
                        buckets[batch_cycle] = [entry]
                        heap_push(cycle_heap, batch_cycle)
                    else:
                        b.append(entry)
                batch = [token]
                batch_cycle = arrive
            if batch is not None:
                entry = (ev_token, batch[0]) if len(batch) == 1 \
                    else (token_batch, tuple(batch))
                b = buckets.get(batch_cycle)
                if b is None:
                    buckets[batch_cycle] = [entry]
                    heap_push(cycle_heap, batch_cycle)
                else:
                    b.append(entry)
            if prof is not None:
                prof.pop()

        def flush():
            nonlocal pod_messages, domain_messages, cluster_messages
            nonlocal latency_sum
            operand_counts["pod"] += pod_messages
            operand_counts["domain"] += domain_messages
            operand_counts["cluster"] += cluster_messages
            stats.message_count += \
                pod_messages + domain_messages + cluster_messages
            stats.message_latency_sum += \
                pod_messages * pod_latency + latency_sum
            pod_messages = domain_messages = cluster_messages = 0
            latency_sum = 0

        return deliver, flush

    # ==================================================================
    # Wave advance with k-loop bounding
    # ==================================================================
    def _advance_wave(
        self, pe: int, inst_id: int, thread: int, wave: int, value: Value,
        done: int,
    ) -> None:
        out_wave = wave + 1
        k = self._d_imm[inst_id]
        if k is not None:
            needed = out_wave - int(k)
            if self._retired.get(thread, 0) < needed:
                stall = (needed, pe, inst_id, thread, out_wave, value, done)
                stalls = self._kbound_stalls.get(thread)
                if stalls is None:
                    self._kbound_stalls[thread] = [stall]
                else:
                    stalls.append(stall)
                return
        self._deliver(
            pe, self._routes[inst_id], thread, out_wave, value, done
        )

    def _wave_retired(self, thread: int, wave: int, cycle: int) -> None:
        """Store-buffer callback: the wave completes at ``cycle``
        (possibly in the future -- retirement awaits the slowest memory
        operation), so the bookkeeping runs as an event then."""
        self._note_time(cycle)
        self._post(cycle, EV_RETIRE, (thread, wave))

    def _on_retire(self, cycle: int, payload: tuple) -> None:
        thread, wave = payload
        if wave + 1 > self._retired.get(thread, 0):
            self._retired[thread] = wave + 1
        stalls = self._kbound_stalls.get(thread)
        if not stalls:
            return
        still = []
        for entry in stalls:
            needed, pe, inst_id, th, out_wave, value, done = entry
            if self._retired[thread] >= needed:
                self._deliver(
                    pe, self._routes[inst_id], th, out_wave, value,
                    max(done, cycle + 1),
                )
            else:
                still.append(entry)
        self._kbound_stalls[thread] = still

    # ==================================================================
    # Memory interface (MEM pseudo-PE <-> store buffer)
    # ==================================================================
    def _on_sbaddr(self, cycle: int, payload: tuple) -> None:
        sb, inst_id, thread, wave, value = payload
        sb.submit_address(inst_id, thread, wave, value, cycle)

    def _on_sbdata(self, cycle: int, payload: tuple) -> None:
        sb, inst_id, thread, wave, value = payload
        sb.submit_data(inst_id, thread, wave, value, cycle)

    def _make_memory(self):
        """Build this run's memory interface: ``send_memory``, the
        request a MEM pseudo-PE sends its thread's home store buffer,
        and ``memory_complete``, the store buffers' completion
        callback, which delivers a result to its consumers.  Returns
        both with the function that flushes their counters into
        ``self.stats``.  A message between two clusters is a mesh
        route (``Interconnect.route_clusters``, which counts it); one
        inside a cluster is counted here.  A completion's consumers
        come from the run's route table; same-cycle arrivals fuse as
        in :meth:`_post_tokens`."""
        buckets = self._buckets
        cycle_heap = self._cycle_heap
        heap_push = heappush
        post_tokens = self._post_tokens
        ev_sbdata = EV_SBDATA
        thread_home = self.placement.thread_home
        storebuffers = self.storebuffers
        routes = self._routes
        route_clusters = self.network.route_clusters
        pes_per_cluster = self._pes_per_cluster
        cluster_latency = self._cluster_latency
        domain_latency = self._domain_latency
        stats = self.stats
        memory_counts = stats.messages["memory"]
        trace = self.trace
        sanitizer = self.sanitizer
        # Cluster-local memory messages; each books the cluster latency.
        local_messages = 0

        def send_memory(pe, thread, wave, inst_id, value, cycle, tag):
            nonlocal local_messages
            home = thread_home.get(thread, 0)
            src_cluster = pe // pes_per_cluster
            if src_cluster == home:
                local_messages += 1
                arrive = cycle + cluster_latency
            else:
                arrive = cycle + domain_latency \
                    + route_clusters(src_cluster, home, cycle)
            if arrive > self._horizon:
                self._horizon = arrive
            if trace is not None:
                trace.emit(
                    cycle, "mem_req", pe, inst_id, thread, wave,
                    f"{'data' if tag == ev_sbdata else 'addr'} -> "
                    f"sb{home}",
                )
            item = (tag, (storebuffers[home], inst_id, thread, wave, value))
            b = buckets.get(arrive)
            if b is None:
                buckets[arrive] = [item]
                heap_push(cycle_heap, arrive)
            else:
                b.append(item)

        def memory_complete(op, value, cycle):
            nonlocal local_messages
            if cycle > self._horizon:
                self._horizon = cycle
            inst_id = op.inst_id
            thread = op.thread
            wave = op.wave
            if trace is not None:
                trace.emit(cycle, "mem_done", -1, inst_id, thread, wave,
                           f"= {value!r}")
            home = thread_home.get(thread, 0)
            batch = None
            batch_cycle = -1
            for dst_pe, dst_inst, port, _ in routes[inst_id]:
                if sanitizer is not None:
                    sanitizer.note_created()
                dst_cluster = dst_pe // pes_per_cluster
                if dst_cluster == home:
                    local_messages += 1
                    arrive = cycle + cluster_latency
                else:
                    arrive = cycle + route_clusters(
                        home, dst_cluster, cycle
                    ) + domain_latency
                token = (dst_pe, thread, wave, dst_inst, port, value, False)
                if arrive == batch_cycle:
                    batch.append(token)
                else:
                    if batch is not None:
                        post_tokens(batch_cycle, batch)
                    batch = [token]
                    batch_cycle = arrive
            if batch is not None:
                post_tokens(batch_cycle, batch)

        def flush():
            nonlocal local_messages
            memory_counts["cluster"] += local_messages
            stats.message_count += local_messages
            stats.message_latency_sum += local_messages * cluster_latency
            local_messages = 0

        return send_memory, memory_complete, flush


class _RouteTable(dict):
    """One run's routed destinations: ``inst_id`` -> a tuple of
    ``(dst_pe, dst_inst, port, level)``, ``level`` indexing
    :data:`~repro.sim.stats.LEVELS` (0 pod, 1 domain, 2 cluster,
    3 grid).

    A consumer's PE and the network level between it and its producer
    are fixed once the instructions are placed, and an instruction
    always fires on its own PE, so delivery reads both here instead of
    re-deriving them per token.  A row is filled on the instruction's
    first delivery -- an instruction that never delivers costs
    nothing -- and is a plain dict hit after that."""

    __slots__ = ("_dests", "_pe_of", "_level_between")

    def __init__(self, dests, pe_of: dict, level_between) -> None:
        super().__init__()
        self._dests = dests
        self._pe_of = pe_of
        self._level_between = level_between

    def __missing__(self, inst_id: int) -> tuple:
        pe_of = self._pe_of
        src_pe = pe_of[inst_id]
        row = []
        for dest in self._dests[inst_id]:
            dst_pe = pe_of[dest.inst]
            level = self._level_between(src_pe, dst_pe)
            row.append((dst_pe, dest.inst, dest.port, LEVELS.index(level)))
        row = self[inst_id] = tuple(row)
        return row


def simulate(
    graph: DataflowGraph,
    config: WaveScalarConfig,
    placement: Optional[Placement] = None,
    max_cycles: int = 20_000_000,
    strict: bool = True,
    warm_caches: bool = True,
    max_events: int = 200_000_000,
    compiled: Optional[CompiledGraph] = None,
) -> SimStats:
    """Convenience wrapper: place (if needed) and run ``graph``."""
    if placement is None:
        from ..place.snake import place

        placement = place(graph, config)
    engine = Engine(
        graph, config, placement, max_cycles=max_cycles,
        warm_caches=warm_caches, max_events=max_events, compiled=compiled,
    )
    return engine.run(strict=strict)
