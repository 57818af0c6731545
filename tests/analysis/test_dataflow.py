"""Token-flow fixed point, deadlock proofs, and the AIPC bound model."""

import math
from collections import Counter

from repro.analysis import (
    BoundReport,
    Interval,
    analyze_graph,
    analyze_tokens,
    bound_for_cell,
    compute_bound,
    dataflow,
    workload_statics,
)
from repro.analysis.engine import PortTable
from repro.analysis.dataflow import (
    _FIRED,
    _SAME,
    INF,
    MAX_ROUNDS,
    WIDEN_AFTER,
    _sweep,
    critical_path_cycles,
    deadlock_proofs,
    find_recurrence_cycles,
    placed_edge_weight,
    score_cycles,
)
from repro.core.config import WaveScalarConfig
from repro.harness.spec import CellSpec
from repro.isa import (
    DataflowGraph,
    Dest,
    Instruction,
    Opcode,
    WaveAnnotation,
    make_token,
)
from repro.fuzz import random_graph
from repro.isa.waves import WAVE_END, WAVE_START
from repro.place.snake import place
from repro.workloads import WORKLOADS, Scale

from ..conftest import token_flow_at


def rule_ids(report):
    return sorted({d.rule for d in report.diagnostics})


def chain_graph():
    """entry -> i0 NEG -> i1 NEG -> i2 OUTPUT."""
    return DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NEG, dests=(Dest(1, 0),)),
            Instruction(1, Opcode.NEG, dests=(Dest(2, 0),)),
            Instruction(2, Opcode.OUTPUT),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 5)],
        name="chain",
    )


def starved_graph():
    """i1's port 1 has no producer: a statically provable deadlock."""
    return DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NOP, dests=(Dest(1, 0),)),
            Instruction(1, Opcode.ADD, dests=(Dest(2, 0),)),
            Instruction(2, Opcode.OUTPUT),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 5)],
        name="starved",
    )


# ----------------------------------------------------------------------
# Fixed point
# ----------------------------------------------------------------------
def test_chain_arrival_intervals_are_exact():
    flow = analyze_tokens(chain_graph())
    assert flow.converged
    assert flow.arrivals[(0, 0)] == Interval(1, 1)
    assert flow.arrivals[(1, 0)] == Interval(1, 1)
    assert flow.arrivals[(2, 0)] == Interval(1, 1)
    assert flow.must_fire == frozenset({0, 1, 2})
    assert not flow.never_fire
    assert not flow.proven_deadlock


def test_steer_destinations_are_conditional():
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.STEER,
                        dests=(Dest(1, 0),), false_dests=(Dest(2, 0),)),
            Instruction(1, Opcode.OUTPUT),
            Instruction(2, Opcode.OUTPUT),
        ],
        entry_tokens=[
            make_token(0, 0, 0, 0, 1), make_token(0, 0, 0, 1, 7),
        ],
        name="steer",
    )
    flow = analyze_tokens(graph)
    # Either branch may get zero tokens, so lo stays 0, hi is bounded.
    assert flow.arrivals[(1, 0)] == Interval(0, 1)
    assert flow.arrivals[(2, 0)] == Interval(0, 1)
    assert 0 in flow.must_fire
    assert 1 not in flow.must_fire


def test_loop_widens_to_infinity_and_terminates():
    # i0 feeds itself: unbounded token count, must widen not spin.
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NEG,
                        dests=(Dest(0, 0), Dest(1, 0))),
            Instruction(1, Opcode.OUTPUT),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 0)],
        name="loop",
    )
    flow = analyze_tokens(graph)
    assert flow.converged
    assert flow.arrivals[(0, 0)].hi == INF
    assert flow.arrivals[(0, 0)].lo >= 1  # frozen, still sound


def test_fixed_point_is_monotone_in_rounds():
    """Every ascending iterate under-approximates the fixed point:
    lo never decreases and hi never decreases as rounds increase."""
    graph = chain_graph()
    prev_lo: dict = {}
    prev_hi: dict = {}
    for rounds in range(1, 6):
        flow = token_flow_at(graph, WIDEN_AFTER, rounds)
        for key, interval in flow.arrivals.items():
            assert interval.lo >= prev_lo.get(key, 0)
            assert interval.hi >= prev_hi.get(key, 0)
            prev_lo[key] = interval.lo
            prev_hi[key] = interval.hi


def test_truncated_flow_proves_no_deadlock(monkeypatch):
    """A dry port in a cut-off iterate may still fill: only a
    converged flow proves deadlock, so A001 and the statics stay
    silent and A002 alone reports the cut."""
    graph = WORKLOADS["gzip"].instantiate(scale=Scale.TINY)
    cut = token_flow_at(graph, WIDEN_AFTER, 1)
    assert not cut.converged  # gzip's loops need more than one pass
    # The iterate has a fed port next to a dry one: what a proof
    # would read if it did not check convergence.
    assert any(
        cut.arrivals.get((inst.inst_id, a), Interval()).lo >= 1
        and cut.arrivals.get((inst.inst_id, b), Interval()).hi == 0
        for inst in graph.instructions
        for a in range(inst.arity) for b in range(inst.arity)
    )
    assert cut.deadlocks == [] and not cut.proven_deadlock
    assert deadlock_proofs(graph, cut) == []
    assert analyze_tokens(graph).converged
    monkeypatch.setattr(dataflow, "MAX_ROUNDS", 1)
    assert rule_ids(analyze_graph(graph)) == ["A002"]
    assert not dataflow.graph_statics(graph).proven_deadlock


# ----------------------------------------------------------------------
# The component-ordered sweep
# ----------------------------------------------------------------------
def sweep_counting(consumers, moves=None, max_rounds=MAX_ROUNDS):
    """Run ``_sweep`` with a transfer function that counts its visits
    and reports its output moved on the first ``moves[i]`` visits of
    instruction ``i`` (default 1)."""
    visits = Counter()

    def evaluate(inst_id):
        visits[inst_id] += 1
        limit = (moves or {}).get(inst_id, 1)
        return _FIRED if visits[inst_id] <= limit else _SAME

    rounds, converged = _sweep(consumers, evaluate, max_rounds)
    return visits, rounds, converged


def test_acyclic_graph_is_visited_once_per_instruction():
    for seed in range(5):
        _, consumers = PortTable(random_graph(seed)).token_edges
        visits, rounds, converged = sweep_counting(consumers)
        assert visits == Counter(range(len(consumers)))
        assert (rounds, converged) == (1, True)


def test_long_chain_needs_no_recursion():
    # Ids run against the edges: the order is topological, not by id.
    n = 20_000
    consumers = [[i - 1] if i else [] for i in range(n)]
    visits, rounds, converged = sweep_counting(consumers)
    assert visits == Counter(range(n))
    assert (rounds, converged) == (1, True)


def test_self_loop_iterates_alone():
    # 0 -> 1 -> 1 (self loop) -> 2 -> 3: i1 moves on five visits, so it
    # takes six passes; everything around it is visited once.
    consumers = [[1], [1, 2], [3], []]
    visits, rounds, converged = sweep_counting(consumers, {1: 5})
    assert visits == Counter({0: 1, 1: 6, 2: 1, 3: 1})
    assert (rounds, converged) == (6, True)
    # Cut off after three passes: the downstream still runs once.
    visits, rounds, converged = sweep_counting(consumers, {1: 5}, 3)
    assert visits == Counter({0: 1, 1: 3, 2: 1, 3: 1})
    assert (rounds, converged) == (3, False)


def test_cold_build_graphs_take_few_visits(monkeypatch):
    """The 19 registry workloads at small scale (15,375 instructions)
    took 156,623 visits under the whole-graph sweep."""
    graphs = [
        workload.instantiate(
            scale=Scale.SMALL, threads=16 if workload.multithreaded else None
        )
        for workload in WORKLOADS.values()
    ]
    visits = 0
    sweep = dataflow._sweep

    def counting(consumers, evaluate, max_rounds):
        def counted(inst_id):
            nonlocal visits
            visits += 1
            return evaluate(inst_id)
        return sweep(consumers, counted, max_rounds)

    monkeypatch.setattr(dataflow, "_sweep", counting)
    for graph in graphs:
        visits_before = visits
        assert analyze_tokens(graph).converged
        assert visits - visits_before >= len(graph)
    assert visits <= 45_000


# ----------------------------------------------------------------------
# Deadlock proofs
# ----------------------------------------------------------------------
def test_starved_port_is_a_proven_deadlock():
    flow = analyze_tokens(starved_graph())
    assert flow.proven_deadlock
    ((inst_id, starved, fed),) = flow.deadlocks
    assert (inst_id, starved, fed) == (1, 1, 0)
    (diag,) = deadlock_proofs(starved_graph())
    assert diag.rule == "A001"
    assert "port 1" in diag.message


def test_clean_graph_has_no_deadlock_proof():
    assert not deadlock_proofs(chain_graph())


# ----------------------------------------------------------------------
# Critical path and recurrence
# ----------------------------------------------------------------------
def test_critical_path_sums_latencies_down_the_chain():
    graph = chain_graph()
    flow = analyze_tokens(graph)
    lat = Opcode.NEG.latency
    # i0 fires at 0, i1 at lat, OUTPUT at 2*lat, plus its own latency.
    expected = 2 * lat + Opcode.OUTPUT.latency
    assert critical_path_cycles(PortTable(graph), flow.must_fire) == expected


def test_critical_path_respects_custom_edge_weight():
    graph = chain_graph()
    flow = analyze_tokens(graph)
    got = critical_path_cycles(
        PortTable(graph), flow.must_fire, edge_weight=lambda s, d: 10
    )
    assert got == 20 + Opcode.OUTPUT.latency


def test_recurrence_cycle_found_and_scored():
    # Self-loop firing 10 times with slack 1 (the entry token).
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NEG, dests=(Dest(0, 0),)),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 0)],
        name="self",
    )
    fired = {0: 10}
    sent = {(0, 0, 0): 9}
    cycles = find_recurrence_cycles(graph, fired, sent)
    assert cycles == [((0,), 1, 10)]
    lat = Opcode.NEG.latency
    assert score_cycles(cycles, lambda s, d: lat) == 9 * lat


def test_zero_slack_cycles_are_dropped():
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NEG, dests=(Dest(0, 0),)),
        ],
        entry_tokens=[],
        name="zero-slack",
    )
    assert find_recurrence_cycles(graph, {0: 5}, {(0, 0, 0): 5}) == []


# ----------------------------------------------------------------------
# Placed edge weights
# ----------------------------------------------------------------------
def test_placed_weight_orders_network_levels():
    """Pod-local < domain < cluster < mesh for the same producer."""
    config = WaveScalarConfig(clusters=4)
    graph = chain_graph()
    placement = place(graph, config)

    class FakePlacement:
        def __init__(self, pe_of):
            self.pe_of = pe_of

    def delay(src_pe, dst_pe):
        fake = FakePlacement({0: src_pe, 1: dst_pe})
        return placed_edge_weight(graph, config, fake)(0, 1)

    pod = delay(0, 1)
    domain = delay(0, 2)
    ppd = config.pes_per_domain
    cluster = delay(0, ppd)
    mesh = delay(0, config.pes_per_cluster)
    assert pod < domain < cluster <= mesh
    assert placement.pe_of  # the real placement is non-trivial


def test_placed_weight_memory_round_trip_dominates():
    config = WaveScalarConfig()
    graph = DataflowGraph(
        instructions=[
            Instruction(
                0, Opcode.LOAD, dests=(Dest(1, 0),),
                wave_annotation=WaveAnnotation(
                    prev=WAVE_START, this=0, next=WAVE_END
                ),
            ),
            Instruction(1, Opcode.OUTPUT),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 0)],
        name="mem",
    )

    class FakePlacement:
        pe_of = {0: 0, 1: 0}

    weight = placed_edge_weight(graph, config, FakePlacement())
    floor = (config.cluster_latency + config.storebuffer_latency
             + config.cluster_latency + config.match_to_dispatch_delay
             + config.l1_hit_latency)
    assert weight(0, 1) >= floor


# ----------------------------------------------------------------------
# The bound
# ----------------------------------------------------------------------
def test_bound_report_shape_and_binding_roof():
    statics = workload_statics("gzip", scale="tiny")
    config = WaveScalarConfig()
    bound = compute_bound(statics, config)
    assert isinstance(bound, BoundReport)
    assert bound.aipc_bound > 0
    assert bound.cycles_lower_bound >= statics.config_free_cycles
    assert bound.binding_roof in bound.components or \
        bound.binding_roof == "pe_roof"
    for name in ("critical_path", "recurrence", "dispatch",
                 "critical_path_placed", "recurrence_placed",
                 "dispatch_pe", "memory", "pe_roof"):
        assert name in bound.components, name
    payload = bound.to_dict()
    assert payload["aipc_bound"] == round(bound.aipc_bound, 6)
    assert not math.isinf(payload["aipc_bound"])
    assert "recurrence_placed" in bound.render()


def test_bound_for_cell_matches_compute_bound():
    spec = CellSpec(config=WaveScalarConfig(), workload="gzip",
                    scale="tiny")
    bound = bound_for_cell(spec)
    statics = workload_statics("gzip", scale="tiny")
    assert bound.aipc_bound == \
        compute_bound(statics, spec.config).aipc_bound


def test_statics_build_one_port_table(monkeypatch):
    """The port table depends only on the graph: the statics build it
    once and every config's bound reuses it."""
    built = Counter()

    class CountingTable(PortTable):
        def __init__(self, graph):
            built[graph.name] += 1
            super().__init__(graph)

    monkeypatch.setattr(dataflow, "PortTable", CountingTable)
    statics = workload_statics("gzip", scale="tiny")
    for config in (WaveScalarConfig(), WaveScalarConfig(clusters=4),
                   WaveScalarConfig(virtualization=32)):
        compute_bound(statics, config)
    assert sum(built.values()) == 1


def test_built_graph_statics_run_no_token_flow(monkeypatch):
    """A built graph passed verification, which rejects a proven
    deadlock, so its statics never consult the token flow; a starved
    graph still proves its deadlock through it."""
    from repro.sim.compile import get_compiled

    get_compiled("gzip", scale="tiny")  # build (and verify) first
    flows = Counter()
    token_flow = dataflow._token_flow

    def counting_flow(*args, **kwargs):
        flows["flow"] += 1
        return token_flow(*args, **kwargs)

    monkeypatch.setattr(dataflow, "_token_flow", counting_flow)
    assert not workload_statics("gzip", scale="tiny").proven_deadlock
    assert flows["flow"] == 0
    from .test_rule_pass import island_graph

    for graph in (starved_graph(), island_graph()):
        statics = dataflow.graph_statics(graph)
        assert statics.proven_deadlock, graph.name
        assert compute_bound(statics, WaveScalarConfig()).aipc_bound == 0.0
    assert flows["flow"] == 2


def test_placed_roofs_separate_designs():
    """A pod-less, deeper-hierarchy design must show a strictly larger
    placed critical path than the pod-enabled baseline."""
    statics = workload_statics("gzip", scale="tiny")
    base = compute_bound(statics, WaveScalarConfig())
    tall = compute_bound(
        statics, WaveScalarConfig(clusters=4, virtualization=32,
                                  matching_entries=32)
    )
    assert base.components["critical_path"] == \
        tall.components["critical_path"]  # config-free: identical
    assert tall.components["critical_path_placed"] >= \
        base.components["critical_path_placed"]


def test_deadlocked_workload_bounds_to_zero():
    graph = starved_graph()
    flow = analyze_tokens(graph)
    assert flow.proven_deadlock
    # compute_bound short-circuits on the statics flag.
    from repro.analysis.dataflow import WorkloadStatics

    statics = WorkloadStatics(
        workload="starved", scale="tiny", threads=None, static_alpha=1,
        alpha_work=0, dispatch_work=0, memory_work=0, fpu_work=0,
        memory_by_thread=(), critical_path=0, recurrence=0,
        proven_deadlock=True,
    )
    bound = compute_bound(statics, WaveScalarConfig())
    assert bound.aipc_bound == 0.0
    assert bound.proven_deadlock
    assert bound.binding_roof == "deadlock"
