"""Wave-ordering annotation tests for builder control flow.

These verify the <prev, this, next> chains the builder emits for the
shapes the store buffer must resolve dynamically: memory on one arm,
memory on both arms, nested conditionals, and consecutive forks.
Correct execution through both the interpreter and simulator is the
ultimate check; these tests additionally pin down the static chain
structure.
"""

import pytest

from repro.core.config import BASELINE
from repro.isa import Opcode, UNKNOWN, WAVE_END, WAVE_START
from repro.lang import GraphBuilder
from repro.lang.interp import interpret
from repro.sim import simulate


def memory_chain(graph, region):
    """(inst_id, prev, this, next) for one region, ordered by seq."""
    rows = []
    for inst in graph.memory_instructions:
        ann = inst.wave_annotation
        if ann.region == region:
            rows.append((inst.inst_id, ann.prev, ann.this, ann.next))
    rows.sort(key=lambda r: r[2])
    return rows


def build_one_armed(value):
    """store on the then-arm only; a trailing load after the join."""
    b = GraphBuilder("one_armed")
    base = b.data("cell", [5])
    t = b.entry(value)
    pred = b.gt(t, b.const(0, t))
    br = b.if_else(pred, [t])
    (tv,) = br.then_values()
    b.store(b.const(base, tv), tv)
    br.then_result([tv])
    (fv,) = br.else_values()
    br.else_result([fv])
    (merged,) = br.end()
    b.output(b.load(b.const(base, merged)))
    return b.finalize(), base


def test_one_armed_store_chain_structure():
    graph, _ = build_one_armed(7)
    chain = memory_chain(graph, 0)
    # store (taken arm), auto-NOP (untaken arm), trailing load.
    assert len(chain) == 3
    by_seq = {this: (prev, nxt) for _, prev, this, nxt in chain}
    # Both arm ops start the wave and ripple to the load.
    load_seq = max(by_seq)
    for seq, (prev, nxt) in by_seq.items():
        if seq != load_seq:
            assert prev == WAVE_START
            assert nxt == load_seq
    # The join load cannot know its predecessor statically.
    assert by_seq[load_seq] == (UNKNOWN, WAVE_END)


@pytest.mark.parametrize("value,expected", [(7, 7), (-3, 5)])
def test_one_armed_store_executes_on_both_paths(value, expected):
    graph, base = build_one_armed(value)
    assert interpret(graph).output_values() == [expected]
    assert simulate(graph, BASELINE).output_values() == [expected]


def build_both_arms(value):
    """Different store value on each arm; load after the join."""
    b = GraphBuilder("both_arms")
    base = b.alloc("cell", 1)
    t = b.entry(value)
    pred = b.gt(t, b.const(0, t))
    br = b.if_else(pred, [t])
    (tv,) = br.then_values()
    b.store(b.const(base, tv), b.const(111, tv))
    br.then_result([tv])
    (fv,) = br.else_values()
    b.store(b.const(base, fv), b.const(222, fv))
    br.else_result([fv])
    (merged,) = br.end()
    b.output(b.load(b.const(base, merged)))
    return b.finalize()


@pytest.mark.parametrize("value,expected", [(1, 111), (-1, 222)])
def test_stores_on_both_arms(value, expected):
    graph = build_both_arms(value)
    assert interpret(graph).output_values() == [expected]
    assert simulate(graph, BASELINE).output_values() == [expected]


def test_both_arm_stores_share_wave_start():
    graph = build_both_arms(1)
    chain = memory_chain(graph, 0)
    starts = [row for row in chain if row[1] == WAVE_START]
    assert len(starts) == 2  # one store per arm, both statically first


def build_sequential_forks(value):
    """Two if_else blocks in a row, memory in each."""
    b = GraphBuilder("two_forks")
    base = b.alloc("cells", 2)
    t = b.entry(value)
    pred1 = b.gt(t, b.const(0, t))
    br1 = b.if_else(pred1, [t])
    (tv,) = br1.then_values()
    b.store(b.const(base, tv), b.const(1, tv))
    br1.then_result([tv])
    (fv,) = br1.else_values()
    br1.else_result([fv])
    (mid,) = br1.end()

    pred2 = b.lt(mid, b.const(100, mid))
    br2 = b.if_else(pred2, [mid])
    (tv2,) = br2.then_values()
    b.store(b.const(base + 1, tv2), b.const(2, tv2))
    br2.then_result([tv2])
    (fv2,) = br2.else_values()
    br2.else_result([fv2])
    (end,) = br2.end()
    first = b.load(b.const(base, end))
    second = b.load(b.const(base + 1, end))
    b.output(b.add(first, second))
    return b.finalize()


@pytest.mark.parametrize("value,expected", [(5, 3), (-5, 2), (500, 1)])
def test_sequential_forks(value, expected):
    graph = build_sequential_forks(value)
    assert interpret(graph).output_values() == [expected]
    assert simulate(graph, BASELINE).output_values() == [expected]


def test_nested_if_else_executes():
    b = GraphBuilder("nested_if")
    t = b.entry(7)
    outer_pred = b.gt(t, b.const(0, t))
    br = b.if_else(outer_pred, [t])
    (tv,) = br.then_values()
    inner_pred = b.gt(tv, b.const(5, tv))
    inner = b.if_else(inner_pred, [tv])
    (itv,) = inner.then_values()
    inner.then_result([b.mul(itv, b.const(10, itv))])
    (ifv,) = inner.else_values()
    inner.else_result([ifv])
    (inner_out,) = inner.end()
    br.then_result([inner_out])
    (fv,) = br.else_values()
    br.else_result([b.neg(fv)])
    (out,) = br.end()
    b.output(out)
    graph = b.finalize()
    assert interpret(graph).output_values() == [70]
    assert simulate(graph, BASELINE).output_values() == [70]


def test_loop_body_chain_marks_wave_end():
    """Each loop-body region's last memory op carries WAVE_END, so
    every iteration's wave can retire."""
    b = GraphBuilder("loop_chain")
    base = b.alloc("out", 4)
    t = b.entry(0)
    lp = b.loop([b.const(0, t)], invariants=[b.const(4, t),
                                             b.const(base, t)])
    (i,) = lp.state
    n, base_c = lp.invariants
    b.store(b.add(base_c, i), i)
    i2 = b.add(i, b.const(1, i))
    lp.next_iteration(b.lt(i2, n), [i2])
    lp.end()
    b.output(b.const(1))
    graph = b.finalize()
    store = next(
        inst for inst in graph.memory_instructions
        if inst.opcode is Opcode.STORE
    )
    assert store.wave_annotation.next == WAVE_END
    result = interpret(graph)
    for i in range(1, 4):
        assert result.memory[base + i] == i
