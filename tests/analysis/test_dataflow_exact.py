"""Exactness oracle for the component-ordered fixed points.

``analyze_tokens`` and ``critical_path_cycles`` walk the graph's
strongly connected components in topological order: an instruction on
no cycle is evaluated once, a recurrence iterates alone.  The
round-robin loops they replaced -- every instruction, every round --
are kept here verbatim as the reference.  Once both have converged,
every field the sweep returns must equal what the reference returns:
``arrivals`` including its key set, ``firings``, ``must_fire``,
``never_fire``, ``deadlocks`` and ``converged`` -- all but ``rounds``,
which now counts passes of one component.  Every static bound, prune
decision and bench pin downstream rests on that equality.

A truncated run cannot match the reference: widening counts growth
steps, and the two schedules take different steps to the same fixed
point.  What holds for it is the contract of any ascending iteration:
each partial iterate lies below the next and below the converged one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.dataflow import (
    INF,
    MAX_ROUNDS,
    WIDEN_AFTER,
    Interval,
    TokenFlow,
    _entry_counts,
    _send_targets,
    analyze_tokens,
    critical_path_cycles,
    placed_edge_weight,
)
from repro.core.config import WaveScalarConfig
from repro.fuzz import build_graph, random_graph, random_recipe
from repro.isa import DataflowGraph, Dest, Instruction, make_token
from repro.isa.opcodes import Opcode
from repro.place.snake import place
from repro.workloads import WORKLOADS, Scale

#: ``(widen_after, max_rounds)`` that converge: the defaults and
#: thresholds that freeze/widen at once or early.
CONVERGED = [(8, 512), (2, 512), (0, 512)]
#: Limits that cut the iteration short at every stage.
TRUNCATED = [(8, 1), (8, 3), (8, 7), (1, 5)]

#: A roomy design and a cramped one, so placed edge delays span
#: pod-local, domain, cluster and mesh hops.
CONFIGS = [
    WaveScalarConfig(clusters=4, virtualization=128, matching_entries=128,
                     l2_mb=1),
    WaveScalarConfig(clusters=1, virtualization=64, matching_entries=16),
]


# ----------------------------------------------------------------------
# The reference: the round-robin loops, as deleted from dataflow.py
# ----------------------------------------------------------------------
_ZERO = Interval(0, 0)


def reference_tokens(
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
    entry = _entry_counts(graph)
    # Producers per (inst, port): list of (src_inst, conditional).
    feeders: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for inst in graph.instructions:
        if inst.opcode in (Opcode.OUTPUT, Opcode.THREAD_HALT):
            continue  # sinks: consume tokens, send nothing
        for dst, port, conditional in _send_targets(inst):
            feeders.setdefault((dst, port), []).append(
                (inst.inst_id, conditional)
            )

    arrivals: dict[tuple[int, int], Interval] = {}
    firings: list[Interval] = [_ZERO] * n
    lo_bumps: dict[tuple[int, int], int] = {}
    hi_bumps: dict[tuple[int, int], int] = {}

    def port_interval(inst_id: int, port: int) -> Interval:
        key = (inst_id, port)
        lo = hi = entry.get(key, 0)
        for src, conditional in feeders.get(key, ()):
            fires = firings[src]
            if not conditional:
                lo += fires.lo
            hi += fires.hi  # INF absorbs
        return Interval(lo, hi)

    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        changed = False
        for inst in graph.instructions:
            inst_id = inst.inst_id
            fire_lo: float = INF
            fire_hi: float = INF
            for port in range(inst.arity):
                key = (inst_id, port)
                new = port_interval(inst_id, port)
                old = arrivals.get(key, _ZERO)
                lo, hi = new.lo, new.hi
                # Freeze lo after widen_after increases: any
                # ascending iterate is a sound lower bound, so
                # stopping early only loses precision.
                if lo > old.lo:
                    bumps = lo_bumps.get(key, 0) + 1
                    lo_bumps[key] = bumps
                    if bumps > widen_after:
                        lo = old.lo
                else:
                    lo = old.lo
                # Widen hi to INF after widen_after increases: the
                # real count may be unbounded, and INF is always an
                # upper bound.
                if hi > old.hi:
                    bumps = hi_bumps.get(key, 0) + 1
                    hi_bumps[key] = bumps
                    if bumps > widen_after:
                        hi = INF
                else:
                    hi = old.hi
                if lo != old.lo or hi != old.hi:
                    arrivals[key] = Interval(lo, hi)
                    changed = True
                current = arrivals.get(key, _ZERO)
                fire_lo = min(fire_lo, current.lo)
                fire_hi = min(fire_hi, current.hi)
            if inst.arity == 0:  # not expressible today; be safe
                fire_lo = fire_hi = 0
            new_f = Interval(int(fire_lo), fire_hi)
            if new_f != firings[inst_id]:
                firings[inst_id] = new_f
                changed = True
        if not changed:
            converged = True
            break

    firings_map = {i: firings[i] for i in range(n)}
    must = frozenset(i for i in range(n) if firings[i].lo >= 1)
    never = frozenset(i for i in range(n) if firings[i].hi == 0)
    deadlocks: list[tuple[int, int, int]] = []
    for inst in graph.instructions:
        if inst.arity < 2:
            continue
        ports = [
            arrivals.get((inst.inst_id, p), _ZERO)
            for p in range(inst.arity)
        ]
        starved = [p for p, iv in enumerate(ports) if iv.hi == 0]
        fed = [p for p, iv in enumerate(ports) if iv.lo >= 1]
        if starved and fed:
            deadlocks.append((inst.inst_id, starved[0], fed[0]))
    return TokenFlow(
        arrivals=arrivals,
        firings=firings_map,
        must_fire=must,
        never_fire=never,
        deadlocks=deadlocks,
        converged=converged,
        rounds=rounds,
    )


def reference_critical_path(
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
    entry = _entry_counts(graph)
    feeders: dict[tuple[int, int], list[int]] = {}
    for inst in graph.instructions:
        if inst.opcode in (Opcode.OUTPUT, Opcode.THREAD_HALT):
            continue
        for dst, port, _ in _send_targets(inst):
            feeders.setdefault((dst, port), []).append(inst.inst_id)
    latency = [i.opcode.latency for i in graph.instructions]
    if edge_weight is None:
        def edge_weight(src: int, dst: int) -> int:  # noqa: ARG001
            return latency[src]
    first = [0] * len(graph)
    for _ in range(max_rounds):
        changed = False
        for inst in graph.instructions:
            inst_id = inst.inst_id
            fire_at = 0
            for port in range(inst.arity):
                key = (inst_id, port)
                # First arrival on this port: an entry token lands at
                # cycle 0; otherwise the earliest producer delivery.
                if key in entry:
                    continue
                sources = feeders.get(key)
                if not sources:
                    continue  # port never fed; handled by must_fire
                arrive = min(
                    first[src] + edge_weight(src, inst_id)
                    for src in sources
                )
                if arrive > fire_at:
                    fire_at = arrive
            if fire_at > first[inst_id]:
                first[inst_id] = fire_at
                changed = True
        if not changed:
            break
    # The last must-fire instruction still executes after it fires.
    return max(first[i] + latency[i] for i in must_fire)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def assert_same_flow(graph, widen_after, max_rounds):
    """Every field but ``rounds`` equals the reference's."""
    want = reference_tokens(graph, widen_after, max_rounds)
    got = analyze_tokens(graph, widen_after, max_rounds)
    for field in dataclasses.fields(TokenFlow):
        if field.name == "rounds":
            continue
        assert getattr(got, field.name) == getattr(want, field.name), (
            f"{graph.name} widen_after={widen_after} "
            f"max_rounds={max_rounds}: {field.name} differs"
        )
    return got


def assert_below(low: TokenFlow, high: TokenFlow, what: str) -> None:
    """``low`` is an earlier iterate of the chain ``high`` continues:
    pointwise no larger, arrivals and firings alike."""
    for key, interval in low.arrivals.items():
        top = high.arrivals.get(key)
        assert top is not None, f"{what}: arrival {key} vanished"
        assert interval.lo <= top.lo and interval.hi <= top.hi, (
            f"{what}: arrival {key} {interval} above {top}"
        )
    for inst_id, interval in low.firings.items():
        top = high.firings[inst_id]
        assert interval.lo <= top.lo and interval.hi <= top.hi, (
            f"{what}: firing i{inst_id} {interval} above {top}"
        )


def assert_truncated_ascend(graph):
    """For each threshold, the runs cut off at increasing limits form
    an ascending chain that ends at the converged flow."""
    for widen_after in sorted({w for w, _ in TRUNCATED}):
        limits = sorted(r for w, r in TRUNCATED if w == widen_after)
        chain = [analyze_tokens(graph, widen_after, r) for r in limits]
        chain.append(analyze_tokens(graph, widen_after, MAX_ROUNDS))
        assert chain[-1].converged
        for r, low, high in zip(limits, chain, chain[1:]):
            what = f"{graph.name} widen_after={widen_after} max_rounds={r}"
            assert_below(low, high, what)
            if not low.converged:
                assert low.rounds == r and not low.deadlocks, what


def assert_same_critical_path(graph, must_fire):
    converged = critical_path_cycles(graph, must_fire)
    assert converged == reference_critical_path(graph, must_fire)
    for max_rounds in (1, 3):  # truncated: still below the fixed point
        assert critical_path_cycles(graph, must_fire, max_rounds) <= \
            converged
    for config in CONFIGS:
        weight = placed_edge_weight(graph, config, place(graph, config))
        assert critical_path_cycles(
            graph, must_fire, edge_weight=weight
        ) == reference_critical_path(graph, must_fire, edge_weight=weight)


@pytest.mark.parametrize("scale", [Scale.TINY, Scale.SMALL, Scale.MEDIUM],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_registry_workloads_match_round_robin(name, scale):
    workload = WORKLOADS[name]
    threads = 16 if workload.multithreaded else None
    graph = workload.instantiate(scale=scale, threads=threads)
    flows = [assert_same_flow(graph, *setting) for setting in CONVERGED]
    assert_truncated_ascend(graph)
    assert_same_critical_path(graph, flows[0].must_fire)
    assert_same_critical_path(graph, frozenset(range(len(graph))))


@pytest.mark.parametrize("seed", range(200))
def test_fuzz_graphs_match_round_robin(seed):
    # Forward-edge token graphs (with STEER starvation) and structured
    # programs with loops and branches.
    for graph in (random_graph(seed), build_graph(random_recipe(seed))):
        flows = [assert_same_flow(graph, *setting) for setting in CONVERGED]
        assert_truncated_ascend(graph)
        assert_same_critical_path(graph, flows[0].must_fire)


def test_degenerate_limits():
    graph = random_graph(0)
    flow = assert_same_flow(graph, WIDEN_AFTER, 0)  # no pass at all
    assert (flow.rounds, flow.converged) == (0, False)
    assert not flow.arrivals
    # No component at all: converged at once, after no pass.
    empty = dataclasses.replace(graph, instructions=[], entry_tokens=[])
    assert assert_same_flow(empty, WIDEN_AFTER, MAX_ROUNDS).rounds == 0


def assert_inside(got: TokenFlow, want: TokenFlow) -> None:
    """Same ports, each of ``got``'s intervals within ``want``'s."""
    assert got.arrivals.keys() == want.arrivals.keys()
    for key, interval in got.arrivals.items():
        outer = want.arrivals[key]
        assert outer.lo <= interval.lo and interval.hi <= outer.hi, key


def test_round_that_moves_only_an_arrival_still_counts():
    def entry(inst, port):
        return make_token(0, 0, inst, port, 1)

    # i1 never fires (port 1 is dry), so what reaches its port 0 moves
    # no firing.  The graph is acyclic but its ids run against the
    # edges: the reference meets i1 before i3 and i4 and sees its three
    # feeders arrive over three rounds, so with widen_after=1 it widens
    # i1's hi to inf.  Topological order evaluates i1 once, after every
    # feeder is final: one growth step, and the exact bound [1, 3].
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.STEER, dests=(Dest(1, 0),)),
            Instruction(1, Opcode.ADD),
            Instruction(2, Opcode.STEER, dests=(Dest(1, 0),)),
            Instruction(3, Opcode.NOP, dests=(Dest(1, 0),)),
            Instruction(4, Opcode.NOP, dests=(Dest(3, 0),)),
        ],
        entry_tokens=[entry(0, 0), entry(0, 1), entry(2, 0), entry(2, 1),
                      entry(4, 0)],
        name="arrival-only",
    )
    flow = analyze_tokens(graph, 1, MAX_ROUNDS)
    assert (flow.rounds, flow.converged) == (1, True)
    assert flow.arrivals[(1, 0)] == Interval(1, 3)
    want = reference_tokens(graph, 1, MAX_ROUNDS)
    assert (want.rounds, want.converged) == (4, True)
    assert want.arrivals[(1, 0)] == Interval(1, INF)
    for widen_after, max_rounds in [*CONVERGED, *TRUNCATED]:
        flow = analyze_tokens(graph, widen_after, max_rounds)
        assert flow.converged  # one pass finishes an acyclic graph
        assert_inside(flow, reference_tokens(graph, widen_after))
    # And a hi that moves on a back edge: the steer behind i0.
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.ADD),
            Instruction(1, Opcode.STEER, dests=(Dest(0, 0),)),
        ],
        entry_tokens=[entry(0, 0), entry(1, 0), entry(1, 1)],
        name="hi-only",
    )
    flow = assert_same_flow(graph, WIDEN_AFTER, MAX_ROUNDS)
    assert (flow.rounds, flow.converged) == (1, True)
    assert flow.arrivals[(0, 0)] == Interval(1, 2)
    # Inside a recurrence the pass rule is the reference's: i1 never
    # fires, so the arrival pass 1 gives its port 0 dirties nothing,
    # yet it is followed by one more, empty pass.
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NOP, dests=(Dest(1, 0),)),
            Instruction(1, Opcode.ADD, dests=(Dest(0, 0),)),
        ],
        entry_tokens=[entry(0, 0)],
        name="arrival-only-loop",
    )
    flow = assert_same_flow(graph, WIDEN_AFTER, MAX_ROUNDS)
    assert (flow.rounds, flow.converged) == (2, True)
    assert flow.arrivals[(1, 0)] == Interval(1, 1)
    assert analyze_tokens(graph, WIDEN_AFTER, 1).converged is False
