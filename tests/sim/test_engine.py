"""Tests for the simulation engine's microarchitectural behaviour."""

import pytest

from repro.core.config import BASELINE, WaveScalarConfig
from repro.lang import GraphBuilder
from repro.lang.interp import interpret
from repro.sim import SimulationDeadlock, simulate

from ..conftest import (
    build_array_sum,
    build_counted_sum,
    build_dangling_graph,
    build_store_loop,
    build_threaded_sums,
)


def test_results_match_interpreter(counted_sum, array_sum):
    for graph, expected in (counted_sum, array_sum):
        st = simulate(graph, BASELINE)
        ref = interpret(graph)
        assert st.output_values() == ref.output_values() == [expected]


def test_dynamic_instruction_counts_match_interpreter():
    graph, _ = build_counted_sum(8, k=2)
    st = simulate(graph, BASELINE)
    ref = interpret(graph)
    assert st.dynamic_instructions == ref.dynamic_instructions
    assert st.alpha_instructions == ref.alpha_instructions


def test_memory_results_visible():
    graph, expected_memory, base = build_store_loop(6, k=2)
    from repro.place.snake import place
    from repro.sim.engine import Engine

    placement = place(graph, BASELINE)
    engine = Engine(graph, BASELINE, placement)
    engine.run()
    for addr, value in expected_memory.items():
        assert engine.memory.read_word(addr) == value


def test_threaded_program_on_multicluster():
    graph, expected = build_threaded_sums(4, 8)
    st = simulate(graph, WaveScalarConfig(clusters=4))
    assert st.output_values() == [expected]
    # Threads spread across clusters produce some grid traffic.
    assert st.messages["operand"]["grid"] + st.messages["memory"]["grid"] > 0


def test_cycle_count_positive_and_bounded():
    graph, _ = build_counted_sum(8, k=4)
    st = simulate(graph, BASELINE)
    # At least the dependence-chain length; at most serial execution.
    assert st.cycles > 8
    assert st.cycles < st.dynamic_instructions * 50


def test_k_bound_reduces_matching_pressure():
    values = list(range(40))
    g_free, _ = build_array_sum(values, k=None)
    g_tight, _ = build_array_sum(values, k=1)
    small = WaveScalarConfig(matching_entries=16, virtualization=16)
    st_free = simulate(g_free, small)
    st_tight = simulate(g_tight, small)
    assert st_tight.matching_misses <= st_free.matching_misses


def test_k_bound_limits_parallelism():
    graph_k1, _ = build_counted_sum(30, k=1)
    graph_k8, _ = build_counted_sum(30, k=8)
    st1 = simulate(graph_k1, BASELINE)
    st8 = simulate(graph_k8, BASELINE)
    # Results identical, but k=1 serialises the iterations.
    assert st1.output_values() == st8.output_values()
    assert st1.cycles >= st8.cycles


def test_deadlock_detection_reports_partial_state():
    b = GraphBuilder("halffed")
    t = b.entry(1)
    # ADD with only one producer: verify_graph would catch it, so skip
    # verification to reach the engine.
    from repro.isa import Opcode

    dangling = b._emit(
        Opcode.ADD, [t], check_inputs=False, allow_underfed=True
    )
    b.output(dangling)
    graph = b.finalize(verify=False)
    with pytest.raises(SimulationDeadlock, match="partial rows"):
        simulate(graph, BASELINE)


def test_non_strict_returns_partial_stats():
    b = GraphBuilder("halffed2")
    t = b.entry(1)
    from repro.isa import Opcode

    dangling = b._emit(
        Opcode.ADD, [t], check_inputs=False, allow_underfed=True
    )
    b.output(dangling)
    graph = b.finalize(verify=False)
    st = simulate(graph, BASELINE, strict=False)
    assert st.cycles >= 0


def test_matching_overflow_recovers():
    """A tiny matching table thrashes but still completes correctly."""
    values = list(range(30))
    graph, expected = build_array_sum(values, k=8)
    tiny = WaveScalarConfig(matching_entries=4, virtualization=8,
                            matching_hash_k=1)
    st = simulate(graph, tiny)
    assert st.output_values() == [expected]
    assert st.matching_misses > 0


def test_istore_oversubscription_counts_misses():
    graph, expected = build_counted_sum(10, k=2)
    # Tiny virtualization: the program cannot fit 8 instructions/PE...
    config = WaveScalarConfig(
        clusters=1, domains_per_cluster=1, pes_per_domain=2,
        virtualization=8, matching_entries=8,
    )
    assert len(graph) > config.total_instruction_capacity
    st = simulate(graph, config)
    assert st.output_values() == [expected]
    assert st.istore_misses > 0


def test_speculative_fire_speeds_up_dependent_chains():
    graph, _ = build_counted_sum(20, k=2)
    fast = simulate(graph, BASELINE)
    slow = simulate(
        graph,
        WaveScalarConfig(speculative_fire=False),
    )
    assert fast.cycles < slow.cycles
    assert fast.speculative_hits > 0


def test_pods_help_dependent_chains():
    graph, _ = build_counted_sum(20, k=2)
    with_pods = simulate(graph, BASELINE)
    without = simulate(graph, WaveScalarConfig(pods_enabled=False))
    assert with_pods.cycles <= without.cycles


def test_fpu_contention_serialises_fp_ops():
    b = GraphBuilder("fpflood")
    t = b.entry(0)
    outs = []
    for i in range(12):
        x = b.const(float(i), t)
        outs.append(b.fmul(x, x))
    total = outs[0]
    for o in outs[1:]:
        total = b.fadd(total, o)
    b.output(total)
    graph = b.finalize()
    st = simulate(graph, BASELINE)
    ref = interpret(graph)
    assert st.output_values() == ref.output_values()


def test_stats_traffic_fractions_sum_to_one():
    graph, _ = build_threaded_sums(4, 6)
    st = simulate(graph, WaveScalarConfig(clusters=4))
    assert abs(sum(st.traffic_fractions().values()) - 1.0) < 1e-9
    assert abs(sum(st.kind_fractions().values()) - 1.0) < 1e-9


ROUTE_CONFIGS = {
    "C1": WaveScalarConfig(clusters=1),
    "C4": WaveScalarConfig(clusters=4),
    "C16": WaveScalarConfig(clusters=16),
    "C4-nopods": WaveScalarConfig(clusters=4, pods_enabled=False),
}


@pytest.mark.parametrize("name", sorted(ROUTE_CONFIGS))
def test_route_tables_match_placement_and_topology(name):
    """Every routed entry -- true arm and STEER false arm -- is what
    delivery would derive per token: the consumer's PE, its instruction
    and port, and the level an unwarmed interconnect classifies."""
    from repro.place.snake import place
    from repro.sim.engine import Engine
    from repro.sim.network.topology import Interconnect
    from repro.sim.stats import LEVELS, SimStats

    config = ROUTE_CONFIGS[name]
    graph, _ = build_threaded_sums(16, 4)
    placement = place(graph, config)
    engine = Engine(graph, config, placement)
    engine.run()
    net = Interconnect(config, SimStats())
    pe_of = placement.pe_of
    levels = set()
    false_arms = 0
    for table, field in ((engine._routes, "dests"),
                         (engine._false_routes, "false_dests")):
        for inst in graph.instructions:
            src = pe_of[inst.inst_id]
            expected = tuple(
                (pe_of[d.inst], d.inst, d.port,
                 LEVELS.index(net.level_between(src, pe_of[d.inst])))
                for d in getattr(inst, field)
            )
            assert table[inst.inst_id] == expected
            levels.update(LEVELS[entry[3]] for entry in expected)
            false_arms += field == "false_dests" and bool(expected)
    assert false_arms > 0
    assert ("grid" in levels) == (config.clusters > 1)


def _engine_for(outcome: str):
    """An engine whose run finishes, exhausts its cycle budget (twolf
    on a starved 16-cluster design proves a deflection fixed point, in
    milliseconds) or deadlocks."""
    from repro.place.snake import place
    from repro.sim.engine import Engine
    from repro.workloads import Scale
    from repro.workloads.registry import get

    if outcome == "budget":
        config = WaveScalarConfig(clusters=16, virtualization=16,
                                  matching_entries=16)
        graph = get("twolf").instantiate(scale=Scale.TINY, seed=0)
    else:
        config = BASELINE
        graph = build_counted_sum(8)[0] if outcome == "finished" \
            else build_dangling_graph()
    return Engine(graph, config, place(graph, config))


@pytest.mark.parametrize("outcome", ("finished", "budget", "deadlock"))
def test_engine_is_freed_by_reference_count(outcome):
    """A run that returns or raises leaves no cycle through the engine:
    ``del`` frees it with the cycle collector off, and what a caller
    reads after the run is still there."""
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        engine = _engine_for(outcome)
        try:
            engine.run()
            failure = None
        except SimulationDeadlock as exc:
            failure = type(exc).__name__
        assert failure == {"finished": None,
                           "budget": "CycleBudgetExhausted",
                           "deadlock": "TrueDeadlock"}[outcome]
        assert engine.stats.events_processed > 0
        assert (engine.fixed_point is not None) == (outcome == "budget")
        assert engine.failure_diagnostics().events_processed \
            == engine.stats.events_processed
        freed = weakref.ref(engine)
        del engine
        assert freed() is None
    finally:
        gc.enable()


def test_batch_engines_are_freed_by_reference_count():
    """The same for every cell of a batch, failed ones included, once
    the batch and its outcomes are dropped: the supervisor's reused
    isolation child serves group after group with the cycle collector
    on its ordinary schedule, so its memory stays flat only if each
    group's engines go by reference count."""
    import gc
    import weakref

    from repro.sim.batched import BatchedEngine

    gc.collect()
    gc.disable()
    try:
        engines = [_engine_for(o) for o in ("finished", "budget")]
        outcomes = BatchedEngine(engines).run()
        assert [o.ok for o in outcomes] == [True, False]
        freed = [weakref.ref(e) for e in engines]
        del engines, outcomes
        assert [ref() for ref in freed] == [None, None]
    finally:
        gc.enable()
