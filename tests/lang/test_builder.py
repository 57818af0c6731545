"""Unit tests for the GraphBuilder EDSL."""

import pytest

from repro.isa import Opcode
from repro.isa.verify import verify_graph
from repro.lang import MAX_FANOUT, BuildError, GraphBuilder
from repro.lang.interp import interpret

from ..conftest import build_counted_sum, build_store_loop, build_threaded_sums


def test_simple_arithmetic_chain():
    b = GraphBuilder("chain")
    t = b.entry(3)
    out = b.mul(b.add(t, b.const(4, t)), b.const(2, t))
    b.output(out)
    graph = b.finalize()
    assert interpret(graph).output_values() == [(3 + 4) * 2]


def test_entry_outside_master_region_rejected():
    b = GraphBuilder("bad")
    t = b.entry(0)
    b.spawn_thread(1, [t])
    with pytest.raises(BuildError, match="master region"):
        b.entry(1)


def test_const_requires_trigger_in_empty_region():
    b = GraphBuilder("bad")
    with pytest.raises(BuildError, match="trigger"):
        b.const(5)


def test_cross_region_use_rejected():
    """Using a pre-loop value inside the loop must raise: it would be a
    wave-mismatched token in real hardware."""
    b = GraphBuilder("bad")
    t = b.entry(0)
    stray = b.const(7, t)
    lp = b.loop([b.const(0, t)])
    (i,) = lp.state
    with pytest.raises(BuildError, match="wave boundary"):
        b.add(i, stray)


def test_cross_thread_use_rejected():
    b = GraphBuilder("bad")
    t = b.entry(0)
    master_val = b.const(1, t)
    b.spawn_thread(1, [b.const(2, t)])
    with pytest.raises(BuildError):
        b.nop(master_val)


def test_loop_requires_carried_value():
    b = GraphBuilder("bad")
    b.entry(0)
    with pytest.raises(BuildError, match="carried"):
        b.loop([])


def test_if_else_requires_values():
    b = GraphBuilder("bad")
    t = b.entry(0)
    with pytest.raises(BuildError, match="at least one"):
        b.if_else(b.const(1, t), [])


def test_if_else_arm_arity_mismatch_rejected():
    b = GraphBuilder("bad")
    t = b.entry(1)
    br = b.if_else(t, [t])
    (tv,) = br.then_values()
    br.then_result([tv, tv])
    (fv,) = br.else_values()
    br.else_result([fv])
    with pytest.raises(BuildError, match="same number"):
        br.end()


def test_unclosed_thread_rejected_at_finalize():
    b = GraphBuilder("bad")
    t = b.entry(0)
    b.spawn_thread(1, [t])
    with pytest.raises(BuildError, match="end_thread"):
        b.finalize()


def test_end_thread_without_spawn_rejected():
    b = GraphBuilder("bad")
    t = b.entry(0)
    with pytest.raises(BuildError, match="without matching"):
        b.end_thread(t)


def test_double_finalize_rejected():
    b = GraphBuilder("x")
    b.output(b.entry(1))
    b.finalize()
    with pytest.raises(BuildError):
        b.finalize()


def test_duplicate_data_segment_rejected():
    b = GraphBuilder("x")
    b.data("seg", [1])
    with pytest.raises(BuildError, match="already allocated"):
        b.data("seg", [2])


def test_data_segments_line_aligned():
    b = GraphBuilder("x")
    a = b.data("a", [1] * 3)
    c = b.data("c", [2] * 20)
    assert a % 16 == 0
    assert c % 16 == 0
    assert c >= a + 16  # 3 words round up to one full line


def test_fanout_expansion_inserts_nop_tree():
    b = GraphBuilder("fan")
    t = b.entry(5)
    sinks = [b.nop(t) for _ in range(MAX_FANOUT * 3)]
    for s in sinks:
        b.output(s)
    graph = b.finalize()
    for inst in graph.instructions:
        assert inst.fanout <= MAX_FANOUT, inst
    # Every sink still receives the value exactly once.
    result = interpret(graph)
    assert result.output_values() == [5] * (MAX_FANOUT * 3)


def test_every_region_ends_with_wave_end():
    graph, _ = build_counted_sum(4)
    regions = set()
    ends = set()
    for inst in graph.memory_instructions:
        ann = inst.wave_annotation
        regions.add(ann.region)
        if ann.next == -3:  # WAVE_END
            ends.add(ann.region)
    assert regions == ends
    assert len(regions) >= 3  # entry, body, post-loop


def test_memory_free_regions_get_automatic_memory_nop():
    graph, _ = build_counted_sum(4)
    # counted_sum touches no data memory; every region must still carry
    # a MEMORY_NOP so waves retire contiguously.
    nops = [
        i for i in graph.instructions if i.opcode is Opcode.MEMORY_NOP
    ]
    assert len(nops) >= 3


def test_graph_passes_semantic_verification():
    for graph in (
        build_counted_sum(4)[0],
        build_store_loop(4)[0],
        build_threaded_sums(2, 3)[0],
    ):
        verify_graph(graph)
        assert graph.output_instruction_ids()


def test_thread_partition_recorded():
    graph, _ = build_threaded_sums(3, 4)
    thread_ids = {t.thread_id for t in graph.threads}
    assert thread_ids == {0, 1, 2, 3}
    owner = graph.thread_of_instruction()
    assert set(owner.values()) == {0, 1, 2, 3}
    # Every instruction is owned by exactly one thread entry.
    counts = sum(len(t.instructions) for t in graph.threads)
    assert counts == len(graph)


def test_steer_false_side_routing():
    b = GraphBuilder("steer")
    t = b.entry(10)
    pred = b.const(0, t)  # always false
    t_node, f_node = b.steer(t, pred)
    b.output(b.nop(f_node, label="false_path"))
    b.output(b.nop(t_node, label="true_path"))
    graph = b.finalize()
    result = interpret(graph)
    assert result.output_values() == [10]  # only the false path fired


def test_nested_thread_spawn():
    """A worker thread can itself spawn a sub-worker (nested fork/join
    through THREAD_SPAWN retagging)."""
    b = GraphBuilder("nested_threads")
    t = b.entry(0)
    (seed1,) = b.spawn_thread(1, [b.const(10, t)])
    # Thread 1 spawns thread 2 and adds its result to its own seed.
    (seed2,) = b.spawn_thread(2, [b.add(seed1, b.const(5, seed1))])
    inner = b.mul(seed2, b.const(2, seed2))
    back_in_1 = b.end_thread(inner)  # (10+5)*2 = 30, back in thread 1
    result1 = b.add(back_in_1, b.const(1, back_in_1))
    final = b.end_thread(result1)  # 31, back in master
    b.output(final)
    graph = b.finalize()
    from repro.lang.interp import interpret

    assert interpret(graph).output_values() == [31]


def test_nested_thread_runs_on_simulator():
    from repro.core.config import BASELINE
    from repro.sim import simulate

    b = GraphBuilder("nested_threads2")
    t = b.entry(3)
    (seed1,) = b.spawn_thread(1, [t])
    (seed2,) = b.spawn_thread(2, [b.mul(seed1, seed1)])
    back = b.end_thread(b.add(seed2, b.const(1, seed2)))
    final = b.end_thread(back)
    b.output(final)
    graph = b.finalize()
    assert simulate(graph, BASELINE).output_values() == [10]
