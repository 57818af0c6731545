"""Tests for the functional reference interpreter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import GraphBuilder
from repro.lang.interp import DeadlockError, interpret

from ..conftest import (
    build_array_sum,
    build_counted_sum,
    build_store_loop,
    build_threaded_sums,
)


def test_counted_sum(counted_sum):
    graph, expected = counted_sum
    assert interpret(graph).output_values() == [expected]


def test_array_sum(array_sum):
    graph, expected = array_sum
    assert interpret(graph).output_values() == [expected]


def test_store_loop_writes_memory():
    graph, expected_memory, base = build_store_loop(6)
    result = interpret(graph)
    for addr, value in expected_memory.items():
        assert result.memory[addr] == value


def test_threaded_sums():
    graph, expected = build_threaded_sums(4, 6)
    assert interpret(graph).output_values() == [expected]


def test_waves_retired_contiguously():
    graph, _ = build_counted_sum(5)
    result = interpret(graph)
    # entry wave + 5 iterations + post-loop wave = 7 waves in thread 0.
    assert result.waves_retired == {0: 7}


def test_alpha_count_less_than_dynamic():
    graph, _ = build_counted_sum(10)
    result = interpret(graph)
    assert 0 < result.alpha_instructions < result.dynamic_instructions


def test_firing_histogram_accounts_every_firing():
    graph, _ = build_counted_sum(10)
    result = interpret(graph)
    assert sum(result.fired_by_opcode.values()) == result.dynamic_instructions


def test_livelock_guard():
    b = GraphBuilder("forever")
    t = b.entry(0)
    lp = b.loop([b.const(0, t)])
    (i,) = lp.state
    lp.next_iteration(b.const(1, i), [b.add(i, b.const(1, i))])
    exits = lp.end()
    b.output(exits[0])
    graph = b.finalize()
    with pytest.raises(DeadlockError, match="firings"):
        interpret(graph, max_firings=10_000)


def test_nested_loops():
    """sum_{i<n} sum_{j<m} (i*m+j) with nested waves."""
    n, m = 4, 3
    b = GraphBuilder("nested")
    t = b.entry(0)
    # The body holds an inner loop, so the outer loop carries n and m
    # as state, threaded through the inner loop's invariants.
    outer = b.loop(
        [b.const(0, t), b.const(0, t), b.const(n, t), b.const(m, t)],
    )
    i, acc, n_in, m_in = outer.state
    inner = b.loop(
        [b.const(0, i), b.nop(acc)],
        invariants=[b.nop(i), b.nop(m_in), b.nop(n_in)],
    )
    j, acc_in = inner.state
    i_in, m_inner, n_pass = inner.invariants
    term = b.add(b.mul(i_in, m_inner), j)
    j2 = b.add(j, b.const(1, j))
    inner.next_iteration(b.lt(j2, m_inner), [j2, b.add(acc_in, term)])
    j_f, acc_f, i_f, m_f, n_f = inner.end()
    i2 = b.add(i_f, b.const(1, i_f))
    outer.next_iteration(b.lt(i2, n_f), [i2, acc_f, n_f, m_f])
    exits = outer.end()
    b.output(exits[1])
    graph = b.finalize()
    expected = sum(i * m + j for i in range(n) for j in range(m))
    assert interpret(graph).output_values() == [expected]


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.integers(-100, 100), min_size=1, max_size=12))
def test_array_sum_matches_python(values):
    graph, expected = build_array_sum(values)
    assert interpret(graph).output_values() == [expected]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 15), k=st.one_of(st.none(), st.integers(1, 4)))
def test_k_bound_does_not_change_results(n, k):
    """k-loop bounding limits parallelism, never results."""
    graph, expected = build_counted_sum(n, k=k)
    assert interpret(graph).output_values() == [expected]


def test_memory_ordering_load_after_store():
    """A load in the same wave chain must see the preceding store."""
    b = GraphBuilder("raw_hazard")
    addr_base = b.alloc("cell", 1)
    t = b.entry(0)
    addr = b.const(addr_base, t)
    b.store(addr, b.const(41, t))
    loaded = b.load(b.nop(addr))
    b.output(b.add(loaded, b.const(1, t)))
    graph = b.finalize()
    assert interpret(graph).output_values() == [42]


def test_store_to_load_across_waves():
    """Iteration i stores, iteration i+1 loads the value back."""
    n = 5
    b = GraphBuilder("cross_wave")
    base = b.alloc("cell", 1)
    t = b.entry(0)
    lp = b.loop([b.const(0, t)], invariants=[b.const(n, t), b.const(base, t)])
    (i,) = lp.state
    limit, cell = lp.invariants
    prev = b.load(cell)
    b.store(b.nop(cell), b.add(prev, b.const(1, prev)))
    i2 = b.add(i, b.const(1, i))
    lp.next_iteration(b.lt(i2, limit), [i2])
    lp.end()
    b.output(b.const(1))
    graph = b.finalize()
    result = interpret(graph)
    assert result.memory[base] == n
