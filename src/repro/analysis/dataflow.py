"""Fixed-point token-flow analysis and sound AIPC upper bounds.

Two layers, both over a :class:`~repro.isa.graph.DataflowGraph`:

**Token-flow analysis** (:func:`analyze_tokens`) -- an abstract
interpretation over *arrival-count intervals*: for every
``(instruction, port)`` the analysis computes an interval ``[lo, hi]``
bounding how many tokens can ever arrive there, by iterating monotone
transfer functions to a fixed point.

* the abstract domain is ``Interval`` -- ``lo`` is a proven lower
  bound, ``hi`` a proven upper bound (possibly infinite);
* an instruction's firing count is the min over its ports (the
  dataflow firing rule: one token per port per firing);
* a normal destination receives exactly the producer's firing count;
  a STEER destination receives ``[0, firings.hi]`` (the predicate may
  route every token the other way);
* termination: ``hi`` is *widened* to infinity after
  :data:`WIDEN_AFTER` increases (a loop's trip count is not statically
  knowable), and ``lo`` is *frozen* after the same number of increases
  -- a frozen ``lo`` is still sound because every ascending iterate
  from bottom under-approximates the least fixed point.

The analysis promotes the engine's dynamic deadlock check to a static
*proof*: a port that provably receives a token (``lo >= 1``) next to a
sibling port that provably never does (``hi == 0``) is a token parked
forever in the matching table -- the simulator's quiescence check
*will* raise ``TrueDeadlock`` on that graph, before any cycles are
spent discovering it.  These proofs surface as ``A``-rule diagnostics
through the standard rule registry, so ``repro lint`` reports them.

**Bound model** (:func:`compute_bound` / :func:`workload_statics`) --
a sound per-cell AIPC upper bound::

    AIPC <= min(PE roof,  alpha work / cycles lower bound)

where the cycles lower bound is the max of independent *roofs*, each a
consequence of one hardware resource the
:class:`~repro.sim.engine.WaveScalarProcessor` models as a reservation
ledger:

* **critical path** -- first-firing times iterated to a fixed point
  with per-edge delay floors (see below);
* **dispatch roof** -- every PE dispatches at most one operation per
  cycle (per-PE ``BandwidthLedger(1)``), and a STORE dispatches twice
  (decoupled address/data halves); placement pins each instruction to
  one PE, so the busiest PE's dispatch count lower-bounds cycles;
* **memory roof** -- each cluster's L1 accepts ``l1_ports`` accesses
  per cycle, and a thread's memory traffic is pinned to its home
  cluster by placement;
* **FPU roof** -- one FPU per domain, one operation per cycle;
* **recurrence roof** -- for a dependence cycle ``C`` with per-edge
  token *slack* (arrivals on the consumer port not produced by the
  in-cycle producer), the k-th firing recurrence composes to
  ``cycles >= floor((n - 1) / slack(C)) * delay(C)``; slacks come
  from the reference interpreter's exact per-edge delivery counts.

Edge delays come in two precisions.  The config-free floor is the
producer's execution latency (the speculative-pod bypass: a consumer
can never observe a result before the producer's latency has
elapsed).  The *placed* floor replays the engine's timing pipeline
against the deterministic snake placement: a pod-local speculative
edge costs ``max(1, latency)``, any other operand hop pays the
dispatch-to-execute cycle, the network level's base latency (domain
bus, cluster NET chain, or mesh hop count) and the match-to-dispatch
delay, and a memory edge pays the full store-buffer round trip
(request to the home cluster, store-buffer pipeline, L1 hit, and the
completion delivery back).  Every term is the *uncontended* minimum
of the corresponding engine path, so the placed delays remain true
lower bounds while separating designs by geometry.

The *work* terms come from :func:`repro.lang.interp.interpret` -- the
architectural golden model, whose dynamic counts are config-independent
and exact -- so the only approximation in the bound is in the roofs,
and every roof is a true lower bound on cycles.  The soundness gate
(``tests/analysis/test_bound_soundness.py``) asserts
``bound >= measured AIPC`` for every suite workload across the design
grid; the sweep's ``--prune`` mode (see
:func:`repro.harness.sweep.design_space_sweep`) uses these bounds to
skip dominated designs without moving the Pareto frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..isa.graph import DataflowGraph
from ..isa.opcodes import Opcode
from .diagnostics import Diagnostic, Report, Severity
from .engine import TARGET_GRAPH, rule

__all__ = [
    "INF",
    "WIDEN_AFTER",
    "Interval",
    "TokenFlow",
    "analyze_tokens",
    "deadlock_proofs",
    "critical_path_cycles",
    "find_recurrence_cycles",
    "score_cycles",
    "recurrence_cycles",
    "placed_edge_weight",
    "WorkloadStatics",
    "workload_statics",
    "BoundReport",
    "compute_bound",
    "bound_for_cell",
    "clear_statics_cache",
]

#: The infinite upper bound (loops with data-dependent trip counts).
INF = math.inf

#: Interval-growth steps per port before ``hi`` widens to infinity
#: and ``lo`` freezes.  Any value terminates; smaller converges
#: faster, larger proves tighter finite bounds on deep acyclic chains.
WIDEN_AFTER = 8

#: Fixed-point iteration cap: passes over any one recurrence (strongly
#: connected component); an instruction on no cycle is evaluated once.
#: Widening guarantees convergence well before this; the cap is a
#: backstop so a pathological graph degrades to a sound partial result
#: instead of spinning.
MAX_ROUNDS = 512


@dataclass(frozen=True)
class Interval:
    """Arrival/firing-count bounds: ``lo`` proven minimum, ``hi``
    proven maximum (``INF`` when unbounded)."""

    lo: int = 0
    hi: float = 0

    def __repr__(self) -> str:
        hi = "inf" if self.hi == INF else int(self.hi)
        return f"[{self.lo},{hi}]"


@dataclass
class TokenFlow:
    """Result of one fixed-point token-flow analysis."""

    #: Per ``(inst, port)`` arrival-count interval.
    arrivals: dict[tuple[int, int], Interval]
    #: Per-instruction firing-count interval (min over ports).
    firings: dict[int, Interval]
    #: Instructions proven to fire at least once.
    must_fire: frozenset[int]
    #: Instructions proven to never fire (some port's ``hi == 0``).
    never_fire: frozenset[int]
    #: ``(inst, starved_port, fed_port)`` for every proven deadlock:
    #: ``fed_port`` provably receives a token, ``starved_port``
    #: provably never does, so the match can never complete.  Empty
    #: unless ``converged``: a cut-off iterate proves nothing dry.
    deadlocks: list[tuple[int, int, int]]
    #: Whether iteration reached the fixed point (False only if the
    #: MAX_ROUNDS backstop fired; bounds remain sound either way).
    converged: bool
    #: The most passes any one strongly connected component took (1
    #: on an acyclic graph; ``max_rounds`` when the backstop fired).
    rounds: int

    @property
    def proven_deadlock(self) -> bool:
        return bool(self.deadlocks)


def _entry_counts(graph: DataflowGraph) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for token in graph.entry_tokens:
        key = (token.inst, token.port)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _send_targets(inst) -> Iterator[tuple[int, int, bool]]:
    """``(dest_inst, dest_port, conditional)`` for every outgoing edge.

    ``conditional`` marks destinations that may receive anywhere from
    zero to every firing's token (STEER routing); unconditional
    destinations receive exactly one token per firing.
    """
    conditional = inst.opcode is Opcode.STEER
    for dest in inst.dests:
        yield dest.inst, dest.port, conditional
    for dest in inst.false_dests:
        yield dest.inst, dest.port, True


def _flatten(graph: DataflowGraph):
    """The port table both fixed points run on: ``(base, entry,
    feeders, consumers)``.

    Ports are numbered densely in ``(inst, port)`` order: instruction
    ``i`` owns slots ``base[i] .. base[i + 1] - 1``.  ``entry[slot]``
    counts the port's entry tokens, ``feeders[slot]`` lists its
    ``(src_inst, conditional)`` producers, and ``consumers[i]`` lists
    the instructions ``i`` sends to (the ones to revisit when ``i``
    changes).  Expects a graph that passes ``graph.validate()``.
    """
    base = [0]
    for inst in graph.instructions:
        base.append(base[-1] + inst.arity)
    entry = [0] * base[-1]
    for token in graph.entry_tokens:
        entry[base[token.inst] + token.port] += 1
    feeders: list[list[tuple[int, bool]]] = [[] for _ in entry]
    consumers: list[list[int]] = [[] for _ in graph.instructions]
    for inst in graph.instructions:
        if inst.opcode in (Opcode.OUTPUT, Opcode.THREAD_HALT):
            continue  # sinks: consume tokens, send nothing
        for dst, port, conditional in _send_targets(inst):
            feeders[base[dst] + port].append((inst.inst_id, conditional))
            consumers[inst.inst_id].append(dst)
    return base, entry, feeders, consumers


def _scc_partition(adj: list[list[int]]) -> list[int]:
    """Iterative Tarjan over nodes ``0 .. len(adj) - 1``: the strongly
    connected component number of every node.

    Roots are taken in id order and successors in list order.
    Components are numbered in the order Tarjan closes them, so every
    edge ``u -> v`` between two components has ``comp[u] > comp[v]``:
    descending numbers are a topological order of the condensation.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = closed = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    break
                # Visited and not yet closed means on the stack.
                if comp[nxt] < 0 and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        comp[member] = closed
                        if member == node:
                            break
                    closed += 1
    return comp


#: What a transfer function reports about the instruction it just
#: re-evaluated: nothing moved, only its own port state moved, or its
#: output (what its consumers read) moved.
_SAME, _MOVED, _FIRED = 0, 1, 2


def _sweep(
    consumers: list[list[int]],
    evaluate: Callable[[int], int],
    max_rounds: int,
) -> tuple[int, bool]:
    """Iterate ``evaluate`` to a fixed point; ``(rounds, converged)``.

    Walks the strongly connected components of ``consumers`` in
    topological order, so every producer outside a component is final
    before the component is evaluated.  An instruction on no cycle is
    evaluated exactly once.  A recurrence (a component with an internal
    edge) iterates alone, in passes over its members in id order,
    stopping after the first pass in which nothing moved or after
    ``max_rounds`` passes; after its first pass a pass visits only the
    *dirty*: members with an in-component producer whose output moved
    since their last visit (with unchanged inputs a transfer function
    returns :data:`_SAME`, so the skipped visits are no-ops).  A
    consumer marked ahead of the scan is met in the current pass, one
    behind it (a back edge, a self loop) in the next.  ``rounds`` is
    the most passes any one component took; ``converged`` is False if
    any component was cut off.  DESIGN.md §5h has the argument.
    """
    n = len(consumers)
    if max_rounds < 1:
        return 0, not n
    comp = _scc_partition(consumers)
    size = [0] * (max(comp, default=-1) + 1)
    for c in comp:
        size[c] += 1
    # Descending component number is a topological order; the sort is
    # stable, so each component's members stay in id order.
    order = sorted(range(n), key=comp.__getitem__, reverse=True)
    dirty = bytearray(n)
    rounds = 1 if n else 0  # every component takes at least one pass
    converged = True
    at = 0
    while at < n:
        first = order[at]
        c = comp[first]
        if size[c] == 1 and first not in consumers[first]:
            evaluate(first)
            at += 1
            continue
        members = order[at:at + size[c]]
        at += size[c]
        end = members[-1] + 1
        for inst_id in members:
            dirty[inst_id] = 1
        passes = 0
        while passes < max_rounds:
            passes += 1
            moved = False
            inst_id = dirty.find(1, first, end)
            while inst_id >= 0:
                dirty[inst_id] = 0
                status = evaluate(inst_id)
                if status != _SAME:
                    moved = True
                    if status == _FIRED:
                        for dst in consumers[inst_id]:
                            if comp[dst] == c:
                                dirty[dst] = 1
                inst_id = dirty.find(1, inst_id + 1, end)
            if not moved:
                break
        else:
            converged = False
            for inst_id in members:
                dirty[inst_id] = 0
        if passes > rounds:
            rounds = passes
    return rounds, converged


def analyze_tokens(
    graph: DataflowGraph,
    widen_after: int = WIDEN_AFTER,
    max_rounds: int = MAX_ROUNDS,
) -> TokenFlow:
    """Iterate arrival-count intervals to a (widened) fixed point.

    Sound for *any* round count: transfer functions are monotone and
    iteration ascends from bottom, so ``lo`` never exceeds the real
    count and (after widening) ``hi`` never undercuts it.
    """
    n = len(graph)
    base, entry, feeders, consumers = _flatten(graph)
    # Per-port arrival bounds and growth counts, per-instruction
    # firing bounds; everything starts at bottom, [0, 0].
    lo: list[int] = [0] * len(entry)
    hi: list[float] = [0] * len(entry)
    lo_bumps = [0] * len(entry)
    hi_bumps = [0] * len(entry)
    fire_lo: list[int] = [0] * n
    fire_hi: list[float] = [0] * n

    def evaluate(inst_id: int) -> int:
        status = _SAME
        new_fire_lo: float = INF
        new_fire_hi: float = INF
        for slot in range(base[inst_id], base[inst_id + 1]):
            new_lo = new_hi = entry[slot]
            for src, conditional in feeders[slot]:
                if not conditional:
                    new_lo += fire_lo[src]
                new_hi += fire_hi[src]  # INF absorbs
            # Freeze lo after widen_after increases: any ascending
            # iterate is a sound lower bound, so stopping early only
            # loses precision.
            if new_lo > lo[slot]:
                lo_bumps[slot] += 1
                if lo_bumps[slot] <= widen_after:
                    lo[slot] = new_lo
                    status = _MOVED
            # Widen hi to INF after widen_after increases: the real
            # count may be unbounded, and INF is always an upper bound.
            if new_hi > hi[slot]:
                hi_bumps[slot] += 1
                hi[slot] = (
                    new_hi if hi_bumps[slot] <= widen_after else INF
                )
                status = _MOVED
            if lo[slot] < new_fire_lo:
                new_fire_lo = lo[slot]
            if hi[slot] < new_fire_hi:
                new_fire_hi = hi[slot]
        if base[inst_id] == base[inst_id + 1]:
            new_fire_lo = new_fire_hi = 0  # not expressible today
        if new_fire_lo != fire_lo[inst_id] or \
                new_fire_hi != fire_hi[inst_id]:
            fire_lo[inst_id] = int(new_fire_lo)
            fire_hi[inst_id] = new_fire_hi
            status = _FIRED
        return status

    rounds, converged = _sweep(consumers, evaluate, max_rounds)

    # A port is recorded once its interval has left [0, 0].
    arrivals = {
        (inst_id, slot - base[inst_id]): Interval(lo[slot], hi[slot])
        for inst_id in range(n)
        for slot in range(base[inst_id], base[inst_id + 1])
        if lo[slot] or hi[slot]
    }
    # A proof needs the fixed point: a truncated iterate has dry ports
    # that a few more passes would still fill.
    deadlocks: list[tuple[int, int, int]] = []
    for inst_id in range(n if converged else 0):
        first = base[inst_id]
        ports = range(first, base[inst_id + 1])
        starved = [slot - first for slot in ports if hi[slot] == 0]
        fed = [slot - first for slot in ports if lo[slot] >= 1]
        if starved and fed:
            deadlocks.append((inst_id, starved[0], fed[0]))
    return TokenFlow(
        arrivals=arrivals,
        firings={
            i: Interval(fire_lo[i], fire_hi[i]) for i in range(n)
        },
        must_fire=frozenset(i for i in range(n) if fire_lo[i] >= 1),
        never_fire=frozenset(i for i in range(n) if fire_hi[i] == 0),
        deadlocks=deadlocks,
        converged=converged,
        rounds=rounds,
    )


def deadlock_proofs(
    graph: DataflowGraph, flow: Optional[TokenFlow] = None
) -> list[Diagnostic]:
    """The A001 diagnostics for every statically proven deadlock."""
    if flow is None:
        flow = analyze_tokens(graph)
    out = []
    for inst_id, starved, fed in flow.deadlocks:
        opcode = graph[inst_id].opcode.name
        out.append(Diagnostic(
            rule="A001",
            severity=Severity.ERROR,
            message=(
                f"proven deadlock: {opcode} i{inst_id} port {fed} "
                f"receives a token but port {starved} provably never "
                "does; the match can never complete and the token is "
                "parked forever"
            ),
            source=graph.name,
            location=f"i{inst_id}",
            hint=(
                "wire a producer (or an entry token) to port "
                f"{starved}, or remove the dead operand"
            ),
        ))
    return out


def _backstop_warnings(
    graph: DataflowGraph, flow: TokenFlow
) -> list[Diagnostic]:
    """The A002 diagnostic when ``flow`` stopped at its round limit
    (``flow.rounds`` is then the ``max_rounds`` it was given)."""
    if flow.converged:
        return []
    return [Diagnostic(
        rule="A002",
        severity=Severity.WARNING,
        message=(
            f"token-flow analysis hit the {flow.rounds}-round backstop "
            "before the fixed point; interval bounds are sound but "
            "imprecise"
        ),
        source=graph.name,
        hint="the graph likely has an unusually deep or dense "
             "cyclic region",
    )]


@rule("A001", "statically proven true deadlock", TARGET_GRAPH,
      shared=True)
def _check_proven_deadlock(graph: DataflowGraph, facts) -> list[Diagnostic]:
    """Fixed-point promotion of the engine's dynamic quiescence check:
    a diagnostic here is a *proof* that simulation will end in
    ``TrueDeadlock``.  Starvation that is already structural -- the
    port has no producer and no entry token -- is left to G001, which
    carries the actionable fix; A001 reports only what a structural
    scan cannot see (a wired port the token flow proves dry)."""
    if not facts.sound:
        return []
    flow = facts.flow
    wired = facts.entry_ports | facts.feeders.keys()
    return [
        diag
        for diag, (inst_id, starved, _) in zip(
            deadlock_proofs(graph, flow), flow.deadlocks
        )
        if (inst_id, starved) in wired
    ]


@rule("A002", "token-flow fixed point not reached", TARGET_GRAPH,
      severity=Severity.WARNING, shared=True)
def _check_convergence(graph: DataflowGraph, facts) -> list[Diagnostic]:
    """The MAX_ROUNDS backstop firing means interval precision was
    lost (bounds stay sound); real programs converge in tens of
    rounds, so this flags pathological graph structure."""
    return _backstop_warnings(graph, facts.flow) if facts.sound else []


# ----------------------------------------------------------------------
# Critical path (first-firing lower bounds)
# ----------------------------------------------------------------------
def critical_path_cycles(
    graph: DataflowGraph,
    must_fire: frozenset[int],
    max_rounds: int = MAX_ROUNDS,
    edge_weight: Optional[Callable[[int, int], int]] = None,
) -> int:
    """A lower bound on total cycles from first-firing times.

    ``first(i) >= max over ports p of min over producers u of
    (first(u) + delay(u, i))`` where the default delay is the
    producer's execution latency (the speculative-pod bypass floor: a
    consumer cannot observe an operand before its producer's execution
    latency has elapsed); ``edge_weight(src, dst)`` substitutes a
    placement-aware floor.  Iterated ascending from zero, so any round
    count is sound; only instructions known to fire (``must_fire``)
    contribute to the result.
    """
    if not must_fire:
        return 0
    base, entry, feeders, consumers = _flatten(graph)
    latency = [i.opcode.latency for i in graph.instructions]
    if edge_weight is None:
        def edge_weight(src: int, dst: int) -> int:  # noqa: ARG001
            return latency[src]
    first = [0] * len(graph)

    def evaluate(inst_id: int) -> int:
        fire_at = 0
        for slot in range(base[inst_id], base[inst_id + 1]):
            # First arrival on this port: an entry token lands at
            # cycle 0; otherwise the earliest producer delivery.  A
            # port never fed is handled by must_fire.
            if entry[slot] or not feeders[slot]:
                continue
            arrive = min(
                first[src] + edge_weight(src, inst_id)
                for src, _ in feeders[slot]
            )
            if arrive > fire_at:
                fire_at = arrive
        if fire_at > first[inst_id]:
            first[inst_id] = fire_at
            return _FIRED
        return _SAME

    _sweep(consumers, evaluate, max_rounds)
    # The last must-fire instruction still executes after it fires.
    return max(first[i] + latency[i] for i in must_fire)


# ----------------------------------------------------------------------
# Recurrence roof (loop-carried dependence cycles)
# ----------------------------------------------------------------------
#: Budget on DFS edge-visits while enumerating simple cycles; missing
#: the best cycle under budget only *weakens* the bound (never
#: unsound).
CYCLE_BUDGET = 100_000
#: Maximum simple-cycle length explored.
CYCLE_MAX_LEN = 64


#: Most dependence cycles kept per workload for per-config re-scoring
#: (the stored set is re-weighted with placed edge delays by
#: :func:`compute_bound`; dropping cycles only weakens the bound).
MAX_STORED_CYCLES = 1024


def find_recurrence_cycles(
    graph: DataflowGraph,
    fired: dict[int, int],
    sent: dict[tuple[int, int, int], int],
    budget: int = CYCLE_BUDGET,
) -> list[tuple[tuple[int, ...], int, int]]:
    """Enumerate loop-carried dependence cycles: ``(path, slack, peak)``.

    For an edge ``u -> (v, p)`` the *slack* is the number of tokens
    port ``p`` received that did **not** come from ``u`` (entry tokens
    plus other producers): ``T_v(k) >= T_u(k - slack) + delay(u, v)``,
    because the k-th firing of ``v`` consumes the k-th arrival on
    ``p``, of which at most ``slack`` bypass ``u``.  Composed around a
    simple cycle ``C`` with total slack ``S >= 1`` and total delay
    ``D``, the recurrence telescopes to
    ``cycles >= floor((peak - 1) / S) * D`` where ``peak`` is the max
    firing count on the cycle.

    Enumeration is a budgeted DFS per strongly-connected component;
    an exhausted budget returns the cycles found so far (a subset of
    constraints, so any derived bound stays sound).  Zero-slack
    cycles are dropped: they cannot occur in a completed execution.
    """
    # Arrivals per (inst, port): entry tokens + every producer's
    # deliveries -- exact, from the reference execution.
    arrivals: dict[tuple[int, int], int] = dict(_entry_counts(graph))
    for (src, dst, port), count in sent.items():
        key = (dst, port)
        arrivals[key] = arrivals.get(key, 0) + count
    # Dependence edges between instructions that actually fired, each
    # carrying the minimum slack over parallel edges (the tightest
    # valid constraint).
    edge: dict[tuple[int, int], int] = {}  # (u, v) -> min slack
    for (src, dst, port), count in sent.items():
        if count <= 0 or not fired.get(src) or not fired.get(dst):
            continue
        slack = arrivals[(dst, port)] - count
        key = (src, dst)
        if key not in edge or slack < edge[key]:
            edge[key] = slack
    adj: list[list[int]] = [[] for _ in graph.instructions]
    for (src, dst) in sorted(edge):
        adj[src].append(dst)
    comp_of = _scc_partition(adj)
    comps: list[list[int]] = [[] for _ in range(max(comp_of, default=-1) + 1)]
    for node, c in enumerate(comp_of):
        comps[c].append(node)

    found: list[tuple[tuple[int, ...], int, int]] = []
    steps = 0

    def note(path: list[int], slack: int) -> None:
        if slack <= 0:
            return
        peak = max(fired[v] for v in path)
        found.append((tuple(path), slack, peak))

    for comp in comps:
        members = set(comp)
        if len(comp) == 1:
            node = comp[0]
            if (node, node) in edge:  # self-loop
                note([node], edge[(node, node)])
            continue
        # DFS simple cycles within the SCC, Johnson-style: each cycle
        # is discovered exactly once from its smallest member.
        for start in comp:
            if steps >= budget:
                break
            path = [start]
            on_path = {start}
            frames = [iter(adj[start])]
            slacks = [0]
            while frames:
                if steps >= budget:
                    break
                advanced = False
                for nxt in frames[-1]:
                    steps += 1
                    if nxt not in members or nxt < start:
                        continue
                    here = path[-1]
                    if nxt == start:
                        note(path, slacks[-1] + edge[(here, start)])
                        continue
                    if nxt in on_path or len(path) >= CYCLE_MAX_LEN:
                        continue
                    path.append(nxt)
                    on_path.add(nxt)
                    slacks.append(slacks[-1] + edge[(here, nxt)])
                    frames.append(iter(adj[nxt]))
                    advanced = True
                    break
                if not advanced:
                    frames.pop()
                    on_path.discard(path.pop())
                    slacks.pop()
    return found


def score_cycles(
    cycles: list[tuple[tuple[int, ...], int, int]],
    edge_weight: Callable[[int, int], int],
) -> int:
    """Max recurrence bound over ``cycles`` with per-edge delays."""
    best = 0
    for path, slack, peak in cycles:
        repeats = (peak - 1) // slack
        if repeats <= 0:
            continue
        n = len(path)
        delay = sum(
            edge_weight(path[i], path[(i + 1) % n]) for i in range(n)
        )
        bound = repeats * delay
        if bound > best:
            best = bound
    return best


def recurrence_cycles(
    graph: DataflowGraph,
    fired: dict[int, int],
    sent: dict[tuple[int, int, int], int],
    budget: int = CYCLE_BUDGET,
) -> int:
    """Config-free recurrence roof: cycle delays are producer
    execution latencies (see :func:`find_recurrence_cycles`)."""
    latency = [i.opcode.latency for i in graph.instructions]
    cycles = find_recurrence_cycles(graph, fired, sent, budget)
    return score_cycles(
        cycles, lambda src, dst: latency[src]  # noqa: ARG005
    )


# ----------------------------------------------------------------------
# Placed edge delays (config + placement aware floors)
# ----------------------------------------------------------------------
def placed_edge_weight(
    graph: DataflowGraph, config, placement
) -> Callable[[int, int], int]:
    """Per-edge dispatch-to-dispatch delay floors under ``placement``.

    Mirrors the engine's uncontended timing pipeline
    (:mod:`repro.sim.engine` / :mod:`repro.sim.network.topology`):

    * pod-local with speculative fire: the consumer dispatches as soon
      as the bypass network carries the result -- ``max(1, latency)``;
    * any other operand hop: one dispatch-to-execute cycle, the
      producer's latency, the network level's base latency (domain
      bus / cluster NET chain / mesh with hop count), then the
      match-to-dispatch delay on arrival;
    * a memory producer's consumers wait for the full store-buffer
      round trip: request to the thread's home cluster (floored at
      the same-cluster ``cluster_latency``, which also floors every
      cross-cluster path), the store-buffer pipeline, an L1 *hit*
      (loads/stores only -- misses only take longer), and the
      completion delivery back out.

    Every term is the minimum of the corresponding engine path with
    zero contention, so these are true per-edge lower bounds.
    """
    latency = [i.opcode.latency for i in graph.instructions]
    opcode = [i.opcode for i in graph.instructions]
    pe_of = placement.pe_of
    pods = config.pods_enabled
    spec = config.speculative_fire
    match = config.match_to_dispatch_delay
    ppd = config.pes_per_domain
    ppc = config.pes_per_cluster
    mem_round = (
        config.cluster_latency + config.storebuffer_latency
        + config.cluster_latency + match
    )
    cols, _rows = config.grid_shape

    def weight(src: int, dst: int) -> int:
        lat = latency[src]
        op = opcode[src]
        if op.is_memory:
            extra = (
                config.l1_hit_latency
                if (op.is_load or op.is_store) else 0
            )
            return 1 + lat + mem_round + extra
        a = pe_of.get(src, 0)
        b = pe_of.get(dst, 0)
        if a == b or (pods and a // 2 == b // 2):
            if spec:
                return lat if lat > 1 else 1
            return 1 + lat + config.pod_latency + match
        if a // ppd == b // ppd:
            return 1 + lat + config.domain_latency + match
        ca, cb = a // ppc, b // ppc
        if ca == cb:
            return 1 + lat + config.cluster_latency + match
        hops = (
            abs(ca % cols - cb % cols) + abs(ca // cols - cb // cols)
        )
        return 1 + lat + config.intercluster_base + hops + match

    return weight


# ----------------------------------------------------------------------
# Workload statics: config-independent bound ingredients
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadStatics:
    """Everything the bound needs that does not depend on the design.

    Computed once per ``(workload, scale, threads, k, seed)`` from the
    reference interpreter's exact dynamic profile plus the fixed-point
    analyses, then combined with any number of configs by
    :func:`compute_bound` at dictionary-lookup cost.
    """

    workload: str
    scale: str
    threads: Optional[int]
    #: Distinct alpha-equivalent static instructions (PE-roof term).
    static_alpha: int
    #: Exact dynamic work terms from the reference execution.
    alpha_work: int
    dispatch_work: int  # dynamic instructions + STORE refires
    memory_work: int  # LOAD + STORE firings (cache accesses)
    fpu_work: int
    #: Per-thread memory firings, sorted by thread id.
    memory_by_thread: tuple[tuple[int, int], ...]
    #: Config-independent cycle lower bounds.
    critical_path: int
    recurrence: int
    #: Statically proven to end in TrueDeadlock (AIPC bound is 0).
    proven_deadlock: bool
    #: Maximum dataflow out-degree over instructions that fire: how
    #: many operand sends one firing can fan out to.  A surrogate
    #: feature (network-pressure proxy), not a bound ingredient.
    fanout_pressure: int = 0
    #: The compiled graph (shared with the simulator's LRU cache) --
    #: needed to re-score the roofs against a concrete placement.
    graph: Optional[DataflowGraph] = None
    #: Instructions proven to fire (exact, from the profile).
    must_fire: frozenset[int] = frozenset()
    #: Exact per-instruction firing counts, sorted by id.
    fired_by_inst: tuple[tuple[int, int], ...] = ()
    #: Dependence cycles for per-config recurrence re-scoring, capped
    #: at :data:`MAX_STORED_CYCLES` strongest (by config-free score).
    cycles: tuple[tuple[tuple[int, ...], int, int], ...] = ()

    @property
    def config_free_cycles(self) -> int:
        return max(self.critical_path, self.recurrence, 1)


def workload_statics(
    name: str,
    scale: str = "tiny",
    threads: Optional[int] = None,
    k: Optional[int] = None,
    seed: int = 0,
) -> WorkloadStatics:
    """Build, reference-execute, and statically analyze one workload
    instantiation (uncached; see :func:`bound_for_cell`)."""
    from ..sim.compile import get_compiled

    compiled = get_compiled(name, scale=scale, threads=threads, k=k,
                            seed=seed)
    return graph_statics(compiled.graph, name=name, scale=scale,
                         threads=threads)


def graph_statics(
    graph: DataflowGraph,
    name: str = "<graph>",
    scale: str = "tiny",
    threads: Optional[int] = None,
) -> WorkloadStatics:
    """Statically analyze and reference-execute an already-built graph.

    The registry-independent core of :func:`workload_statics`: the
    fuzzer (and any programmatic caller with a hand-built graph) uses
    this to get bound ingredients for programs that have no registry
    name."""
    from ..lang.interp import interpret

    flow = analyze_tokens(graph)
    if flow.proven_deadlock:
        return WorkloadStatics(
            workload=name, scale=scale, threads=threads,
            static_alpha=len(graph.alpha_equivalent_ids()),
            alpha_work=0, dispatch_work=0, memory_work=0, fpu_work=0,
            memory_by_thread=(), critical_path=0, recurrence=0,
            proven_deadlock=True,
        )
    result = interpret(graph)
    fired = result.fired_by_inst
    stores = result.fired_by_opcode.get(Opcode.STORE.name, 0)
    loads = result.fired_by_opcode.get(Opcode.LOAD.name, 0)
    fpu_work = sum(
        count for opname, count in result.fired_by_opcode.items()
        if getattr(Opcode, opname).uses_fpu
    )
    owner = graph.thread_of_instruction()
    by_thread: dict[int, int] = {}
    for inst in graph.instructions:
        if inst.opcode.is_load or inst.opcode.is_store:
            count = fired.get(inst.inst_id, 0)
            if count:
                thread = owner.get(inst.inst_id, 0)
                by_thread[thread] = by_thread.get(thread, 0) + count
    must_fire = frozenset(i for i, c in fired.items() if c > 0)
    latency = [i.opcode.latency for i in graph.instructions]
    cycles = find_recurrence_cycles(graph, fired, result.sent_by_edge)
    # Keep the strongest cycles by config-free score (deterministic
    # tie-break on the path itself); dropping the tail only weakens
    # the per-config re-scored bound, never unsounds it.
    cycles.sort(
        key=lambda c: (
            -((c[2] - 1) // c[1]) * sum(latency[v] for v in c[0]),
            c[0],
        )
    )
    kept = tuple(cycles[:MAX_STORED_CYCLES])
    return WorkloadStatics(
        workload=name, scale=scale, threads=threads,
        static_alpha=len(graph.alpha_equivalent_ids()),
        alpha_work=result.alpha_instructions,
        dispatch_work=result.dynamic_instructions + stores,
        memory_work=loads + stores,
        fpu_work=fpu_work,
        memory_by_thread=tuple(sorted(by_thread.items())),
        critical_path=critical_path_cycles(graph, must_fire),
        recurrence=score_cycles(
            list(kept), lambda src, dst: latency[src]  # noqa: ARG005
        ),
        proven_deadlock=False,
        fanout_pressure=max(
            (sum(1 for _ in _send_targets(inst))
             for inst in graph.instructions
             if inst.inst_id in must_fire),
            default=0,
        ),
        graph=graph,
        must_fire=must_fire,
        fired_by_inst=tuple(sorted(fired.items())),
        cycles=kept,
    )


# Per-process memo: the driver computes bounds for every design in a
# grid against the same handful of workload instantiations.
_STATICS_CACHE: dict[tuple, WorkloadStatics] = {}


def clear_statics_cache() -> None:
    _STATICS_CACHE.clear()


def _cached_statics(name: str, scale: str, threads: Optional[int],
                    k: Optional[int], seed: int) -> WorkloadStatics:
    key = (name, scale, threads, k, seed)
    statics = _STATICS_CACHE.get(key)
    if statics is None:
        statics = workload_statics(name, scale=scale, threads=threads,
                                   k=k, seed=seed)
        _STATICS_CACHE[key] = statics
    return statics


# ----------------------------------------------------------------------
# The bound itself
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BoundReport:
    """A sound AIPC upper bound for one (workload, config) cell."""

    workload: str
    config: str
    threads: Optional[int]
    scale: str
    #: The bound: measured AIPC can never exceed this.
    aipc_bound: float
    #: The binding cycles lower bound and its component roofs.
    cycles_lower_bound: int
    components: dict[str, float]
    alpha_work: int
    proven_deadlock: bool = False
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def binding_roof(self) -> str:
        """Name of the roof that set the bound."""
        if self.proven_deadlock:
            return "deadlock"
        work = self.alpha_work / max(1, self.cycles_lower_bound)
        if self.components.get("pe_roof", INF) <= work:
            return "pe_roof"
        cycle_roofs = {
            name: value for name, value in self.components.items()
            if name != "pe_roof"
        }
        if not cycle_roofs:
            return "pe_roof"
        return max(sorted(cycle_roofs), key=lambda k: cycle_roofs[k])

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "config": self.config,
            "threads": self.threads,
            "scale": self.scale,
            "aipc_bound": round(self.aipc_bound, 6),
            "cycles_lower_bound": self.cycles_lower_bound,
            "components": {
                name: round(value, 6)
                for name, value in sorted(self.components.items())
            },
            "alpha_work": self.alpha_work,
            "proven_deadlock": self.proven_deadlock,
        }

    def render(self) -> str:
        threads = f" x{self.threads}thr" if self.threads else ""
        lines = [
            f"{self.workload}@{self.scale}{threads} on {self.config}",
            f"  AIPC upper bound   {self.aipc_bound:.4f}"
            + ("  (proven deadlock)" if self.proven_deadlock else ""),
            f"  alpha work         {self.alpha_work:,}",
            f"  cycles lower bound {self.cycles_lower_bound:,}",
        ]
        for name in sorted(self.components):
            lines.append(
                f"    {name:<16} {self.components[name]:,.1f}"
            )
        for diag in self.diagnostics:
            lines.append(f"  {diag.render()}")
        return "\n".join(lines)


def compute_bound(
    statics: WorkloadStatics, config
) -> BoundReport:
    """Combine one workload's statics with one design config.

    Pure and cheap (no simulation, no graph walk): every term is a
    closed form over the statics and the config's resource counts.
    """
    label = config.describe()
    if statics.proven_deadlock:
        return BoundReport(
            workload=statics.workload, config=label,
            threads=statics.threads, scale=statics.scale,
            aipc_bound=0.0, cycles_lower_bound=0, components={},
            alpha_work=0, proven_deadlock=True,
        )
    total_pes = config.total_pes
    n_domains = config.clusters * config.domains_per_cluster
    components: dict[str, float] = {
        "critical_path": float(statics.critical_path),
        "recurrence": float(statics.recurrence),
        "dispatch": math.ceil(statics.dispatch_work / total_pes),
    }
    if statics.fpu_work:
        components["fpu"] = math.ceil(statics.fpu_work / n_domains)
    graph = statics.graph
    if graph is not None:
        from ..place.snake import place

        placement = place(graph, config)
        weight = placed_edge_weight(graph, config, placement)
        # Busiest-PE dispatch roof: placement pins each instruction to
        # one PE, each PE dispatches one operation per cycle, and a
        # STORE dispatches its decoupled address and data halves
        # separately.
        per_pe: dict[int, int] = {}
        pe_of = placement.pe_of
        for inst_id, count in statics.fired_by_inst:
            mult = 2 if graph[inst_id].opcode.is_store else 1
            pe = pe_of.get(inst_id, 0)
            per_pe[pe] = per_pe.get(pe, 0) + count * mult
        if per_pe:
            components["dispatch_pe"] = float(max(per_pe.values()))
        components["critical_path_placed"] = float(
            critical_path_cycles(
                graph, statics.must_fire, edge_weight=weight
            )
        )
        if statics.cycles:
            components["recurrence_placed"] = float(
                score_cycles(list(statics.cycles), weight)
            )
    if statics.memory_work:
        # Aggregate L1 bandwidth: each thread's traffic is pinned to
        # its home cluster, so at most min(clusters, threads) L1s are
        # ever in play; and any single thread is limited to one L1's
        # ports.
        n_threads = max(1, len(statics.memory_by_thread))
        active_l1s = min(config.clusters, n_threads)
        per_thread_peak = max(
            count for _, count in statics.memory_by_thread
        )
        components["memory"] = max(
            math.ceil(
                statics.memory_work / (config.l1_ports * active_l1s)
            ),
            math.ceil(per_thread_peak / config.l1_ports),
        )
    cycles_lb = max(1, int(max(components.values())))
    pe_roof = float(min(total_pes, statics.static_alpha))
    components["pe_roof"] = pe_roof
    aipc = min(pe_roof, statics.alpha_work / cycles_lb)
    return BoundReport(
        workload=statics.workload, config=label,
        threads=statics.threads, scale=statics.scale,
        aipc_bound=aipc, cycles_lower_bound=cycles_lb,
        components=components, alpha_work=statics.alpha_work,
    )


def bound_for_cell(spec) -> BoundReport:
    """The AIPC upper bound for one sweep cell (memoised statics).

    ``spec`` is a :class:`~repro.harness.spec.CellSpec`; the expensive
    per-workload analysis is cached per process, so a full design grid
    pays for it once per (workload, threads) pair.
    """
    statics = _cached_statics(
        spec.workload, spec.scale, spec.threads, spec.k, spec.seed
    )
    return compute_bound(statics, spec.config)


def analyze_dataflow(graph: DataflowGraph) -> Report:
    """Run just the token-flow rules over a graph (library entry
    point mirroring :func:`repro.analysis.analyze_graph`)."""
    report = Report()
    flow = analyze_tokens(graph)
    report.extend(deadlock_proofs(graph, flow))
    report.extend(_backstop_warnings(graph, flow))
    return report
