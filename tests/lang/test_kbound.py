"""Tests for k-loop bounding, which a loop's builder sets on its
back-edge WAVE_ADVANCE instructions."""

import pytest

from repro.isa import Opcode
from repro.lang.interp import interpret

from ..conftest import build_counted_sum, build_threaded_sums


def bounded_advances(graph):
    """The WAVE_ADVANCE instructions that carry a k bound."""
    return [
        inst for inst in graph.instructions
        if inst.opcode is Opcode.WAVE_ADVANCE and inst.immediate is not None
    ]


def test_backedges_found_one_per_carried_value():
    graph, _ = build_counted_sum(4, k=2)
    backs = bounded_advances(graph)
    # 2 carried + 1 invariant = 3 back-edge advances.
    assert len(backs) == 3
    assert all(".back." in inst.label and inst.immediate == 2
               for inst in backs)


def test_backedges_in_threaded_program():
    graph, _ = build_threaded_sums(3, 4, k=2)
    # 3 threads x (2 carried + 1 invariant).
    assert len(bounded_advances(graph)) == 9


def test_set_k_bound_rewrites_only_backedges():
    graph, _ = build_counted_sum(5, k=2)
    unbounded, _ = build_counted_sum(5)
    backs = bounded_advances(graph)
    assert len(graph) == len(unbounded)
    for inst, plain in zip(graph.instructions, unbounded.instructions):
        if inst in backs:
            assert plain.immediate is None
        else:
            assert inst == plain


def test_set_k_bound_none_unbinds():
    graph, _ = build_counted_sum(5, k=None)
    assert bounded_advances(graph) == []


def test_set_k_bound_rejects_zero():
    from repro.workloads import Scale, get

    with pytest.raises(ValueError, match="k must be >= 1"):
        get("gzip").instantiate(Scale.TINY, k=0)


def test_bounded_graph_executes_identically():
    _, expected = build_counted_sum(9)
    for k in (1, 2, 4):
        graph, _ = build_counted_sum(9, k=k)
        assert interpret(graph).output_values() == [expected]


def test_k_bound_of_empty_graph_is_none():
    from repro.lang import GraphBuilder

    b = GraphBuilder("flat")
    b.output(b.entry(1))
    assert bounded_advances(b.finalize()) == []
