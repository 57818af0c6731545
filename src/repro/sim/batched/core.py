"""Lockstep multi-cell execution of the event-driven engine.

The sweep's unit of work is the *cell*: one (design, workload) pair
simulated to completion.  Cells are mutually independent, so a batch
of same-workload cells can interleave on one interpreter in any
order without changing any per-cell result.  This module drives a
batch *cycle-major*: a shared frontier tracks each cell's next
calendar cycle in a numpy struct-of-arrays (one slot per cell), every
round advances the cells sitting at the global minimum through one
lockstep quantum of simulated cycles, and each cell finalizes exactly
where the serial engine would have.

What the batch actually shares (and why it is faster than one fork
per cell):

* **decode** -- every cell of a group indexes the same
  :class:`~repro.sim.compile.CompiledGraph` flat per-instruction
  tuples (instruction-major SoA, built once per workload);
* **process and interpreter state** -- one fork, one warm allocator,
  one warm reference-output memo, one result channel, one ledger
  append for the whole batch instead of per cell;
* **event dispatch** -- the drain loop below is a specialisation of
  ``Engine._run_plain`` with the token path *and the matching-table
  probe* inlined, the dispatch and delivery handlers shadowed by
  closures with every ``self`` attribute hoisted, and the
  trace/sanitizer/fault hook sites removed (a cell that needs them is
  rejected at construction and falls back to the plain backend), so
  the per-event cost is paid to the simulation, not to call frames
  and disabled instrumentation.

What is deliberately **not** shared: all per-cell mutable machine
state (matching tables, reservation ledgers, store buffers, stats).
Configurations differ across the batch, so timing differs, and
bit-identity per cell is only achievable by keeping every cell's
state private.  The golden suite (``tests/sim/test_batched_backend
.py``) holds every workload to ``SimStats`` equality with the serial
engine across the design grid, including the budget-exhaustion and
deadlock paths.

The drain loop replicates ``_run_plain`` semantics *exactly*: event
budgets are charged per token (batch calendar entries unpack inline),
budget raises requeue the unprocessed bucket tail through
``Engine._requeue_bucket`` so failure diagnostics match the serial
engine bit for bit, and the horizon/quiescence finalisation runs per
cell exactly as ``Engine.run`` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

import numpy as np

from ...isa.semantics import evaluator_for
from ..compile import (
    K_ALU,
    K_HALT,
    K_MEMORY,
    K_OUTPUT,
    K_STEER,
    K_STORE,
    K_WAVE_ADVANCE,
)
from ..engine import Engine
from ..events import (
    EV_DISPATCH,
    EV_IFETCH,
    EV_TOKEN,
    EV_TOKEN_BATCH,
)
from ..failures import (
    CycleBudgetExhausted,
    EventBudgetExhausted,
)
from ..network.topology import Route
from ..pe.matching import MatchRow
from ..stats import SimStats

__all__ = ["BatchedEngine", "BatchOutcome", "LOCKSTEP_QUANTUM"]

#: Simulated cycles each lockstep round advances past the global
#: frontier minimum.  Large enough that round bookkeeping is noise,
#: small enough that the batch genuinely interleaves (a stuck cell
#: cannot starve the others of interpreter time for long).
LOCKSTEP_QUANTUM = 4096

#: Frontier value for a cell with an empty calendar (or a failed one).
_IDLE = np.iinfo(np.int64).max


@dataclass
class BatchOutcome:
    """One cell's terminal state after a lockstep run."""

    stats: Optional[SimStats] = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class BatchedEngine:
    """Runs a list of independently-constructed :class:`Engine`
    instances to completion in lockstep.

    Construction validates that every engine is lockstep-compatible:
    no trace, sanitizer, fault plan, or profiler may be attached (the
    drain loop has their hook sites compiled out -- use
    :func:`~repro.sim.backends.batch_unsupported_reason` to route such
    cells to the plain backend *before* building a batch).
    """

    def __init__(self, engines: list[Engine],
                 quantum: int = LOCKSTEP_QUANTUM) -> None:
        if not engines:
            raise ValueError("batch must contain at least one engine")
        if quantum < 1:
            raise ValueError("lockstep quantum must be positive")
        for n, engine in enumerate(engines):
            for attr in ("trace", "sanitizer", "faults", "profile"):
                if getattr(engine, attr) is not None:
                    raise ValueError(
                        f"cell {n}: {attr} is attached; the batched "
                        "backend does not support it -- run this cell "
                        "on the plain backend"
                    )
        self.engines = engines
        self.quantum = quantum
        n = len(engines)
        # Lockstep struct-of-arrays, one slot per cell: the next
        # calendar cycle (the frontier), events processed so far, and
        # liveness.  The scheduler below queries them vectorised
        # (min / compare / flatnonzero) once per round.
        self._frontier = np.full(n, _IDLE, dtype=np.int64)
        self._processed = np.zeros(n, dtype=np.int64)
        self._active = np.zeros(n, dtype=bool)
        self.rounds = 0

    # ------------------------------------------------------------------
    def run(self, strict: bool = True) -> list[BatchOutcome]:
        """Drive every cell to its terminal state; returns one
        :class:`BatchOutcome` per cell, in construction order.

        A cell that raises (budget exhaustion, deadlock) is recorded
        and deactivated; the rest of the batch continues.  ``strict``
        matches :meth:`Engine.run`: quiescence is audited per cell
        after its calendar drains.
        """
        engines = self.engines
        frontier = self._frontier
        processed = self._processed
        active = self._active
        outcomes = [BatchOutcome() for _ in engines]

        # Per-instruction evaluator tables, shared across cells that
        # index the same CompiledGraph rows (a same-workload batch
        # builds exactly one).
        eval_tables: dict[int, tuple] = {}
        for i, engine in enumerate(engines):
            _install_fast_route(engine)
            _install_fast_deliver(engine)
            _install_fast_dispatch(engine, eval_tables)
            _seed(engine)
            heap = engine._cycle_heap
            if heap:
                frontier[i] = heap[0]
                active[i] = True

        quantum = self.quantum
        while True:
            live = np.flatnonzero(active)
            if live.size == 0:
                break
            ceiling = int(frontier[live].min()) + quantum
            for i in np.flatnonzero(
                    active & (frontier <= ceiling)):
                engine = engines[i]
                try:
                    count = _drain_cell(
                        engine, ceiling, int(processed[i])
                    )
                except Exception as exc:  # noqa: BLE001 - per-cell verdict
                    outcomes[i].error = exc
                    active[i] = False
                    frontier[i] = _IDLE
                    continue
                processed[i] = count
                heap = engine._cycle_heap
                if heap:
                    frontier[i] = heap[0]
                else:
                    # Calendar drained: finalize exactly as
                    # Engine.run does after its loop returns.
                    active[i] = False
                    frontier[i] = _IDLE
                    engine.stats.cycles = engine._horizon
                    engine._events_processed = count
                    engine.stats.events_processed = count
                    try:
                        if strict:
                            engine._check_quiescent()
                    except Exception as exc:  # noqa: BLE001
                        outcomes[i].error = exc
                        continue
                    outcomes[i].stats = engine.stats
            self.rounds += 1
        for engine in engines:
            deliver = engine.__dict__.pop("_deliver", None)
            if deliver is not None:
                deliver.flush()
            dispatch = engine.__dict__.pop("_on_dispatch", None)
            if dispatch is not None:
                dispatch.flush()
            engine.network.__dict__.pop("route", None)
        return outcomes


def _install_fast_route(engine: Engine) -> None:
    """Shadow ``engine.network.route`` with a lockstep specialisation:
    verbatim :meth:`Interconnect.route` with the level memo, the
    result-bus :meth:`BandwidthLedger.reserve`, and the
    :meth:`SimStats.record_message` counters inlined.  The grid path
    (mesh reservations) stays a delegation -- it is both the rarest
    and the most stateful level.
    """
    net = engine.network
    cfg = net.config
    stats = engine.stats
    messages = stats.messages
    level_cache = net._level_cache
    classify = net._classify
    total_pes = net._total_pes
    pod_route = net._pod_route
    pod_latency = pod_route.latency
    pe_bus = net._pe_bus
    net_in = net._net_in
    pes_per_domain = net._pes_per_domain
    pes_per_cluster = net._pes_per_cluster
    domain_latency = cfg.domain_latency
    cluster_latency = cfg.cluster_latency
    route_grid = net._route_grid
    make_route = Route

    def fast_route(src_pe, dst_pe, cycle, kind):
        key = src_pe * total_pes + dst_pe
        level = level_cache.get(key)
        if level is None:
            level = classify(src_pe, dst_pe)
            level_cache[key] = level
        if level == "pod":
            messages[kind]["pod"] += 1
            stats.message_latency_sum += pod_latency
            stats.message_count += 1
            return pod_route

        # All other levels leave the PE on its result bus
        # (inlined BandwidthLedger.reserve).
        ledger = pe_bus[src_pe]
        t = cycle
        used = ledger._used
        get = used.get
        count = get(t, 0)
        per_cycle = ledger.per_cycle
        while count >= per_cycle:
            t += 1
            count = get(t, 0)
        used[t] = count + 1
        wait = t - cycle

        if level == "domain":
            latency = wait + domain_latency
            messages[kind]["domain"] += 1
            stats.message_latency_sum += latency
            stats.message_count += 1
            return make_route("domain", latency, 0, wait)

        if level == "cluster":
            inject = net_in[dst_pe // pes_per_domain].reserve(
                t + cluster_latency - 1
            )
            latency = inject + 1 - cycle
            messages[kind]["cluster"] += 1
            stats.message_latency_sum += latency
            stats.message_count += 1
            return make_route("cluster", latency, 0, wait)

        return route_grid(src_pe, dst_pe, src_pe // pes_per_cluster,
                          cycle, t, kind)

    net.route = fast_route


def _install_fast_deliver(engine: Engine) -> None:
    """Shadow ``engine._deliver`` with a lockstep specialisation.

    The same per-instance shadowing idiom as the engine's profile
    hooks, in the opposite direction: the fault/trace/sanitizer hook
    sites are *removed* (batch construction guarantees all three are
    ``None``), every per-call ``self`` attribute is a closure
    variable, and the ``_post_tokens`` calendar append is inlined.
    The routing, bypass-snoop, and same-cycle batch-fusion logic is
    verbatim ``Engine._deliver``.
    """
    spec_fire = engine._spec_fire
    pe_of = engine._pe_of
    route_of = engine.network.route
    buckets = engine._buckets
    cycle_heap = engine._cycle_heap
    heap_push = heappush
    ev_token = EV_TOKEN
    ev_token_batch = EV_TOKEN_BATCH
    # Pod-level routing inlined a second time (fast_route already has
    # it): the pod path is stateless, and operand delivery is by far
    # its hottest caller, so the extra duplication buys back one
    # function call per pod-local operand.
    net = engine.network
    stats = engine.stats
    operand_counts = stats.messages["operand"]
    level_cache = net._level_cache
    classify = net._classify
    total_pes = net._total_pes
    pod_latency = net._pod_route.latency

    # Pod-message counters accumulate in closure cells and reach
    # ``stats`` through ``flush`` (called once, at shadow-pop): no
    # mid-run reader exists -- failure diagnostics snapshot only the
    # horizon and queue depths -- so per-message attribute writes
    # would be pure overhead.
    pod_messages = 0

    def fast_deliver(src_pe, dests, thread, wave, value, cycle,
                     bypass_from=None):
        nonlocal pod_messages
        spec_pod = bypass_from is not None and spec_fire
        if len(dests) == 1:
            # Single destination (the common case): no same-cycle
            # fusion is possible, so skip the batch bookkeeping.
            dest = dests[0]
            dst_pe = pe_of[dest.inst]
            key = src_pe * total_pes + dst_pe
            level = level_cache.get(key)
            if level is None:
                level = classify(src_pe, dst_pe)
                level_cache[key] = level
            if level == "pod":
                pod_messages += 1
                pod_local = True
                if spec_pod:
                    arrive = bypass_from + 1
                    if cycle - 1 > arrive:
                        arrive = cycle - 1
                else:
                    arrive = cycle + pod_latency
            else:
                route = route_of(src_pe, dst_pe, cycle, "operand")
                pod_local = False
                arrive = cycle + route.latency
            entry = (ev_token, (dst_pe, thread, wave, dest.inst,
                                dest.port, value, pod_local))
            b = buckets.get(arrive)
            if b is None:
                buckets[arrive] = [entry]
                heap_push(cycle_heap, arrive)
            else:
                b.append(entry)
            return
        batch = None
        batch_cycle = -1
        for dest in dests:
            dst_pe = pe_of[dest.inst]
            key = src_pe * total_pes + dst_pe
            level = level_cache.get(key)
            if level is None:
                level = classify(src_pe, dst_pe)
                level_cache[key] = level
            if level == "pod":
                pod_messages += 1
                pod_local = True
                arrive = cycle + pod_latency
            else:
                route = route_of(src_pe, dst_pe, cycle, "operand")
                pod_local = False
                arrive = cycle + route.latency
            if spec_pod and pod_local:
                arrive = max(bypass_from + 1, cycle - 1)
            token = (dst_pe, thread, wave, dest.inst, dest.port,
                     value, pod_local)
            if arrive == batch_cycle:
                batch.append(token)
            else:
                if batch is not None:
                    # inlined Engine._post_tokens
                    if len(batch) == 1:
                        entry = (ev_token, batch[0])
                    else:
                        entry = (ev_token_batch, tuple(batch))
                    b = buckets.get(batch_cycle)
                    if b is None:
                        buckets[batch_cycle] = [entry]
                        heap_push(cycle_heap, batch_cycle)
                    else:
                        b.append(entry)
                batch = [token]
                batch_cycle = arrive
        if batch is not None:
            if len(batch) == 1:
                entry = (ev_token, batch[0])
            else:
                entry = (ev_token_batch, tuple(batch))
            b = buckets.get(batch_cycle)
            if b is None:
                buckets[batch_cycle] = [entry]
                heap_push(cycle_heap, batch_cycle)
            else:
                b.append(entry)

    def _flush_deliver() -> None:
        nonlocal pod_messages
        if pod_messages:
            operand_counts["pod"] += pod_messages
            stats.message_count += pod_messages
            stats.message_latency_sum += pod_messages * pod_latency
            pod_messages = 0

    fast_deliver.flush = _flush_deliver
    engine._deliver = fast_deliver


def _install_fast_dispatch(engine: Engine,
                           eval_tables: dict[int, tuple]) -> None:
    """Shadow ``engine._on_dispatch`` with a lockstep specialisation:
    verbatim ``Engine._on_dispatch`` with the sanitizer/trace hook
    sites removed, every per-call ``self`` attribute hoisted into the
    closure, and :func:`~repro.isa.semantics.evaluate` replaced by a
    per-instruction evaluator table (``eval_tables`` memoises one
    table per CompiledGraph rows object, so a same-workload batch
    resolves each opcode's semantics exactly once).  Must run *after*
    :func:`_install_fast_deliver` so the captured ``deliver`` is the
    fast shadow.
    """
    d_row = engine._d_row
    d_eval = eval_tables.get(id(d_row))
    if d_eval is None:
        d_eval = tuple(evaluator_for(r[0], r[6]) for r in d_row)
        eval_tables[id(d_row)] = d_eval
    dispatch_ports = engine._dispatch
    fpu = engine._fpu
    pes_per_domain = engine._pes_per_domain
    stats = engine.stats
    outputs = engine.stats.outputs
    deliver = engine._deliver
    send_memory = engine._send_memory_request
    advance_wave = engine._advance_wave
    # Engine builds every PE dispatch port and per-domain FPU as
    # ``BandwidthLedger(1)``; the inlined reserves below hard-code
    # that width (a slot is free exactly when its cycle is absent).
    assert all(ledger.per_cycle == 1 for ledger in dispatch_ports)
    assert all(ledger.per_cycle == 1 for ledger in fpu)
    # Instruction counters accumulate in closure cells and reach
    # ``stats`` through ``flush`` at shadow-pop -- same contract as
    # the deliver shadow's message counters (no mid-run reader).
    n_dispatches = 0
    n_dynamic = 0
    n_alpha = 0

    def fast_on_dispatch(cycle, payload):
        nonlocal n_dispatches, n_dynamic, n_alpha
        pe, thread, wave, inst_id, operands = payload
        (opcode, kind, arity, latency, uses_fpu, alpha, imm, dests,
         false_dests) = d_row[inst_id]
        # inlined BandwidthLedger.reserve on the (width-1) PE
        # dispatch port
        used = dispatch_ports[pe]._used
        granted = cycle
        while granted in used:
            granted += 1
        used[granted] = 1
        exec_start = granted + 1
        if uses_fpu:
            # inlined BandwidthLedger.reserve on the (width-1)
            # domain FPU
            f_used = fpu[pe // pes_per_domain]._used
            while exec_start in f_used:
                exec_start += 1
            f_used[exec_start] = 1
        done = exec_start + latency
        if done > engine._horizon:
            engine._horizon = done
        n_dispatches += 1

        # STORE: a decoupled half-operation (operands == (port, value)).
        if kind == K_STORE:
            port, value = operands
            if port == 0:
                n_dynamic += 1
                n_alpha += 1
                send_memory(pe, thread, wave, inst_id, value, done,
                            is_data=False)
            else:
                send_memory(pe, thread, wave, inst_id, value, done,
                            is_data=True)
            return

        n_dynamic += 1
        if alpha:
            n_alpha += 1

        if kind == K_ALU:  # the hottest case: plain ALU evaluation
            value = d_eval[inst_id](operands)
            deliver(pe, dests, thread, wave, value, done,
                    bypass_from=granted)
            return

        if kind == K_MEMORY:  # LOAD / MEMORY_NOP
            send_memory(pe, thread, wave, inst_id, operands[0], done,
                        is_data=False)
            return

        if kind == K_OUTPUT:
            outputs.setdefault(inst_id, []).append(operands[0])
            return

        if kind == K_HALT:
            return

        value = d_eval[inst_id](operands)

        if kind == K_STEER:
            if not operands[1]:
                dests = false_dests
            deliver(pe, dests, thread, wave, value, done,
                    bypass_from=granted)
            return

        if kind == K_WAVE_ADVANCE:
            advance_wave(pe, inst_id, thread, wave, value, done)
            return

        # K_SPAWN: retag into the thread named by the immediate.
        assert imm is not None
        deliver(pe, dests, int(imm), 0, value, done)

    def _flush_dispatch() -> None:
        nonlocal n_dispatches, n_dynamic, n_alpha
        stats.dispatches += n_dispatches
        stats.dynamic_instructions += n_dynamic
        stats.alpha_instructions += n_alpha
        n_dispatches = n_dynamic = n_alpha = 0

    fast_on_dispatch.flush = _flush_dispatch
    engine._on_dispatch = fast_on_dispatch


def _seed(engine: Engine) -> None:
    """Post the program's entry tokens, exactly as the preamble of
    :meth:`Engine.run` does (the fault-plan branch is absent because
    fault plans are rejected at batch construction)."""
    placement_pe = engine.placement.pe_of
    for token in engine.graph.entry_tokens:
        engine._post(
            0, EV_TOKEN,
            (placement_pe[token.inst], token.thread, token.wave,
             token.inst, token.port, token.value, False),
        )


def _drain_cell(eng: Engine, ceiling: int, processed: int) -> int:
    """Drain ``eng``'s calendar through cycle ``ceiling`` and return
    the updated event count.

    This is ``Engine._run_plain`` specialised for lockstep execution:

    * the loop stops once the next bucket lies past ``ceiling``
      (instead of when the calendar empties), so a batch peer gets the
      interpreter back every quantum;
    * the ``EV_TOKEN`` handler body is inlined -- twice, once for
      plain entries and once inside the ``EV_TOKEN_BATCH`` unpack --
      with the trace/sanitizer/fault hook sites removed (batch
      construction guarantees they are ``None``), the
      :meth:`MatchingTable.insert` probe fully inlined (every table
      of one engine shares its hash geometry, hoisted once per
      drain), and the hot counters accumulated in locals, flushed to
      ``eng.stats`` on every exit path;
    * budget raises reuse ``Engine._requeue_bucket`` /
      ``Engine._budget_stop`` verbatim, so ``CycleBudgetExhausted`` /
      ``EventBudgetExhausted`` diagnostics are bit-identical to the
      serial engine's.

    The two inlined token bodies must stay semantically identical to
    ``Engine._on_token`` + ``MatchingTable.insert`` -- the golden
    suite runs every workload against every grid configuration
    (including matching-table conflict/eviction/overflow geometries)
    to hold them there.
    """
    buckets = eng._buckets
    cycle_heap = eng._cycle_heap
    max_cycles = eng.max_cycles
    max_events = eng.max_events
    handlers = eng._handlers
    on_dispatch = eng._on_dispatch  # the fast shadow
    graph_name = eng.graph.name
    heap_pop = heappop
    heap_push = heappush
    token_batch = EV_TOKEN_BATCH
    ev_token = EV_TOKEN
    ev_dispatch = EV_DISPATCH
    ev_ifetch = EV_IFETCH
    match_row = MatchRow

    # Token-path state, hoisted once per drain call.
    stats = eng.stats
    istores = eng.istores
    matching = eng.matching
    ifetch = eng._ifetch
    post_tokens = eng._post_tokens
    d_is_store = eng._d_is_store
    d_arity = eng._d_arity
    d_slot = eng._d_slot
    match_delay = eng._match_delay
    spec_fire = eng._spec_fire
    overflow_penalty = eng._overflow_penalty
    istore_penalty = eng._istore_penalty

    # Matching-table hash geometry: identical for every PE's table
    # (all are built from the one config), hoisted from table 0.
    t0 = matching[0]
    mt_k = t0.hash_k
    mt_groups = t0._groups
    mt_sets = t0.sets
    mt_banks = t0.banks
    mt_assoc = t0.associativity

    # Per-PE over-subscription flags (fixed at construction) as one
    # flat list: the common case skips the InstructionStore object
    # entirely.
    istore_over = [s.over_subscribed for s in istores]

    # The activity horizon as a local running max.  Dispatch/memory
    # handlers keep writing ``eng._horizon`` directly; the true
    # horizon is the max of both, restored at every exit (the
    # ``finally`` below) and -- because ``_budget_stop`` reads
    # ``_horizon`` for its diagnostics -- immediately before each
    # budget raise.
    horizon = eng._horizon

    # Hot counters as locals (flushed in ``finally``): nothing inside
    # the drain reads these stats fields, so deferring the attribute
    # writes is invisible.
    istore_hits = istore_misses = input_rejects = 0
    matching_inserts = matching_misses = matching_evictions = 0
    speculative_hits = 0

    try:
        while cycle_heap and cycle_heap[0] <= ceiling:
            cycle = heap_pop(cycle_heap)
            bucket = buckets.pop(cycle)
            if cycle > max_cycles:
                if horizon > eng._horizon:
                    eng._horizon = horizon
                eng._requeue_bucket(cycle, bucket, 0, 0)
                raise CycleBudgetExhausted(
                    f"{graph_name}: exceeded {max_cycles} cycles",
                    eng._budget_stop(processed),
                )
            for index, entry in enumerate(bucket):
                tag = entry[0]
                if tag == ev_token:
                    processed += 1
                    if processed > max_events:
                        if horizon > eng._horizon:
                            eng._horizon = horizon
                        eng._requeue_bucket(cycle, bucket, index, 0)
                        raise EventBudgetExhausted(
                            f"{graph_name}: exceeded {max_events} "
                            f"events at cycle {cycle} (thrashing)",
                            eng._budget_stop(processed),
                        )
                    if cycle > horizon:
                        horizon = cycle
                    payload = entry[1]
                    # --- inlined Engine._on_token (hooks removed) ---
                    pe, thread, wave, inst_id, port, value, local = \
                        payload
                    if istore_over[pe]:
                        istore = istores[pe]
                        if not istore.hit(inst_id):
                            key = (pe, inst_id)
                            queue = ifetch.get(key)
                            if queue is None:
                                ifetch[key] = [payload]
                                istore_misses += 1
                                fetch_at = cycle + istore_penalty
                                b = buckets.get(fetch_at)
                                if b is None:
                                    buckets[fetch_at] = \
                                        [(ev_ifetch, key)]
                                    heap_push(cycle_heap, fetch_at)
                                else:
                                    b.append((ev_ifetch, key))
                            else:
                                queue.append(payload)
                            continue
                        istore_hits += 1
                    if d_is_store[inst_id]:
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
                    # --- inlined MatchingTable.insert ---
                    table = matching[pe]
                    slot = d_slot[inst_id]
                    if mt_groups >= 1:
                        set_idx = (slot % mt_groups) * mt_k \
                            + (wave % mt_k)
                    else:
                        set_idx = (slot + wave) % mt_sets
                    if cycle != table._bank_cycle:
                        table._bank_cycle = cycle
                        used = table._bank_used = {}
                    else:
                        used = table._bank_used
                    bank = set_idx % mt_banks
                    if bank in used:
                        # bank conflict: reject, retry next cycle
                        input_rejects += 1
                        at = cycle + 1
                        b = buckets.get(at)
                        if b is None:
                            buckets[at] = [(ev_token, payload)]
                            heap_push(cycle_heap, at)
                        else:
                            b.append((ev_token, payload))
                        continue
                    used[bank] = 1
                    arity = d_arity[inst_id]
                    tkey = (thread, wave, inst_id)
                    rows = table._rows
                    row = rows.get(tkey)
                    if row is not None:
                        matching_inserts += 1
                        ports = row.ports
                        ports[port] = value
                        row.last_use = cycle
                        if len(ports) < arity:
                            continue
                        del rows[tkey]
                        table._by_set[set_idx].remove(row)
                    else:
                        ways = table._by_set.setdefault(set_idx, [])
                        if len(ways) >= mt_assoc:
                            # Oldest-first priority under thrashing
                            # (verbatim MatchingTable.insert): rank
                            # instances by (wave, thread, inst);
                            # evict the youngest resident row, or
                            # deflect the incoming token if it is
                            # itself the youngest.
                            victim = ways[0]
                            vk = victim.key
                            vbest = (vk[1], vk[0], vk[2])
                            for r in ways:
                                rk = r.key
                                rp = (rk[1], rk[0], rk[2])
                                if rp > vbest:
                                    vbest = rp
                                    victim = r
                            if (wave, thread, inst_id) >= vbest:
                                # deflected to the overflow table
                                matching_inserts += 1
                                matching_misses += 1
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
                                continue
                            matching_inserts += 1
                            matching_misses += 1
                            matching_evictions += 1
                            vk = victim.key
                            del rows[vk]
                            ways.remove(victim)
                            post_tokens(
                                cycle + overflow_penalty,
                                [
                                    (pe, vk[0], vk[1], vk[2],
                                     vport, vvalue, False)
                                    for vport, vvalue in
                                    victim.ports.items()
                                ],
                            )
                        else:
                            matching_inserts += 1
                        if arity > 1:
                            row = match_row(tkey, {port: value},
                                            cycle)
                            rows[tkey] = row
                            ways.append(row)
                            continue
                        # Single-operand fire: the row would be read
                        # once and discarded, so skip constructing it.
                        ports = {port: value}
                    # --- end inlined insert: the row fired ---
                    if arity == 2:
                        operands = (ports[0], ports[1])
                    elif arity == 1:
                        operands = (ports[0],)
                    else:
                        operands = tuple(
                            ports[p] for p in range(arity)
                        )
                    delay = 0 if (local and spec_fire) \
                        else match_delay
                    if delay == 0:
                        speculative_hits += 1
                    at = cycle + delay
                    item = (ev_dispatch,
                            (pe, thread, wave, inst_id, operands))
                    b = buckets.get(at)
                    if b is None:
                        buckets[at] = [item]
                        heap_push(cycle_heap, at)
                    else:
                        b.append(item)
                    # --- end inlined _on_token ---
                elif tag != token_batch:
                    processed += 1
                    if processed > max_events:
                        if horizon > eng._horizon:
                            eng._horizon = horizon
                        eng._requeue_bucket(cycle, bucket, index, 0)
                        raise EventBudgetExhausted(
                            f"{graph_name}: exceeded {max_events} "
                            f"events at cycle {cycle} (thrashing)",
                            eng._budget_stop(processed),
                        )
                    if cycle > horizon:
                        horizon = cycle
                    if tag == ev_dispatch:
                        on_dispatch(cycle, entry[1])
                    else:
                        handlers[tag](cycle, entry[1])
                else:
                    batch_index = 0
                    for payload in entry[1]:
                        processed += 1
                        if processed > max_events:
                            if horizon > eng._horizon:
                                eng._horizon = horizon
                            eng._requeue_bucket(
                                cycle, bucket, index, batch_index
                            )
                            raise EventBudgetExhausted(
                                f"{graph_name}: exceeded "
                                f"{max_events} events at cycle "
                                f"{cycle} (thrashing)",
                                eng._budget_stop(processed),
                            )
                        if cycle > horizon:
                            horizon = cycle
                        batch_index += 1
                        # --- inlined Engine._on_token (batch twin) ---
                        pe, thread, wave, inst_id, port, value, \
                            local = payload
                        if istore_over[pe]:
                            istore = istores[pe]
                            if not istore.hit(inst_id):
                                key = (pe, inst_id)
                                queue = ifetch.get(key)
                                if queue is None:
                                    ifetch[key] = [payload]
                                    istore_misses += 1
                                    fetch_at = cycle + istore_penalty
                                    b = buckets.get(fetch_at)
                                    if b is None:
                                        buckets[fetch_at] = \
                                            [(ev_ifetch, key)]
                                        heap_push(cycle_heap, fetch_at)
                                    else:
                                        b.append((ev_ifetch, key))
                                else:
                                    queue.append(payload)
                                continue
                            istore_hits += 1
                        if d_is_store[inst_id]:
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
                        # --- inlined MatchingTable.insert ---
                        table = matching[pe]
                        slot = d_slot[inst_id]
                        if mt_groups >= 1:
                            set_idx = (slot % mt_groups) * mt_k \
                                + (wave % mt_k)
                        else:
                            set_idx = (slot + wave) % mt_sets
                        if cycle != table._bank_cycle:
                            table._bank_cycle = cycle
                            used = table._bank_used = {}
                        else:
                            used = table._bank_used
                        bank = set_idx % mt_banks
                        if bank in used:
                            # bank conflict: reject, retry next cycle
                            input_rejects += 1
                            at = cycle + 1
                            b = buckets.get(at)
                            if b is None:
                                buckets[at] = [(ev_token, payload)]
                                heap_push(cycle_heap, at)
                            else:
                                b.append((ev_token, payload))
                            continue
                        used[bank] = 1
                        arity = d_arity[inst_id]
                        tkey = (thread, wave, inst_id)
                        rows = table._rows
                        row = rows.get(tkey)
                        if row is not None:
                            matching_inserts += 1
                            ports = row.ports
                            ports[port] = value
                            row.last_use = cycle
                            if len(ports) < arity:
                                continue
                            del rows[tkey]
                            table._by_set[set_idx].remove(row)
                        else:
                            ways = table._by_set.setdefault(
                                set_idx, [])
                            if len(ways) >= mt_assoc:
                                victim = ways[0]
                                vk = victim.key
                                vbest = (vk[1], vk[0], vk[2])
                                for r in ways:
                                    rk = r.key
                                    rp = (rk[1], rk[0], rk[2])
                                    if rp > vbest:
                                        vbest = rp
                                        victim = r
                                if (wave, thread, inst_id) >= vbest:
                                    # deflected to the overflow table
                                    matching_inserts += 1
                                    matching_misses += 1
                                    at = cycle + overflow_penalty
                                    item = (ev_token,
                                            (pe, thread, wave,
                                             inst_id, port, value,
                                             False))
                                    b = buckets.get(at)
                                    if b is None:
                                        buckets[at] = [item]
                                        heap_push(cycle_heap, at)
                                    else:
                                        b.append(item)
                                    continue
                                matching_inserts += 1
                                matching_misses += 1
                                matching_evictions += 1
                                vk = victim.key
                                del rows[vk]
                                ways.remove(victim)
                                post_tokens(
                                    cycle + overflow_penalty,
                                    [
                                        (pe, vk[0], vk[1], vk[2],
                                         vport, vvalue, False)
                                        for vport, vvalue in
                                        victim.ports.items()
                                    ],
                                )
                            else:
                                matching_inserts += 1
                            if arity > 1:
                                row = match_row(tkey, {port: value},
                                                cycle)
                                rows[tkey] = row
                                ways.append(row)
                                continue
                            # Single-operand fire: the row would be
                            # read once and discarded, so skip
                            # constructing it.
                            ports = {port: value}
                        # --- end inlined insert: the row fired ---
                        if arity == 2:
                            operands = (ports[0], ports[1])
                        elif arity == 1:
                            operands = (ports[0],)
                        else:
                            operands = tuple(
                                ports[p] for p in range(arity)
                            )
                        delay = 0 if (local and spec_fire) \
                            else match_delay
                        if delay == 0:
                            speculative_hits += 1
                        at = cycle + delay
                        item = (ev_dispatch,
                                (pe, thread, wave, inst_id,
                                 operands))
                        b = buckets.get(at)
                        if b is None:
                            buckets[at] = [item]
                            heap_push(cycle_heap, at)
                        else:
                            b.append(item)
                        # --- end inlined _on_token (batch twin) ---
    finally:
        if horizon > eng._horizon:
            eng._horizon = horizon
        stats.istore_hits += istore_hits
        stats.istore_misses += istore_misses
        stats.input_rejects += input_rejects
        stats.matching_inserts += matching_inserts
        stats.matching_misses += matching_misses
        stats.matching_evictions += matching_evictions
        stats.speculative_hits += speculative_hits
    return processed
