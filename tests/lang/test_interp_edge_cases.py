"""Interpreter edge cases: diagnostics, merges, wave-to-data."""

import pytest

from repro.isa import Opcode
from repro.lang import GraphBuilder
from repro.lang.interp import DeadlockError, interpret


def test_merge_select_semantics():
    b = GraphBuilder("merge")
    t = b.entry(0)
    a = b.const(10, t)
    c = b.const(20, t)
    pred = b.const(1, t)
    b.output(b.merge_select(a, c, pred))
    graph = b.finalize()
    assert interpret(graph).output_values() == [10]


def test_merge_select_false_side():
    b = GraphBuilder("merge0")
    t = b.entry(0)
    b.output(b.merge_select(b.const(10, t), b.const(20, t),
                            b.const(0, t)))
    assert interpret(b.finalize()).output_values() == [20]


def test_deadlock_reports_partial_matches():
    b = GraphBuilder("stuck")
    t = b.entry(1)
    dangling = b._emit(Opcode.ADD, [t], check_inputs=False,
                       allow_underfed=True)
    b.output(dangling)
    graph = b.finalize(verify=False)
    with pytest.raises(DeadlockError, match="partial matches"):
        interpret(graph)


def test_thread_halt_consumes_token():
    b = GraphBuilder("halt")
    t = b.entry(3)
    b._emit(Opcode.THREAD_HALT, [t])
    b.output(b.nop(t))
    graph = b.finalize()
    result = interpret(graph)
    assert result.output_values() == [3]
    assert result.fired_by_opcode["THREAD_HALT"] == 1


def test_store_ack_value_usable():
    """STORE produces its data as an acknowledgement token."""
    b = GraphBuilder("ack")
    base = b.alloc("cell", 1)
    t = b.entry(0)
    ack = b.store(b.const(base, t), b.const(7, t))
    b.output(b.add(ack, b.const(1, t)))
    graph = b.finalize()
    result = interpret(graph)
    assert result.output_values() == [8]
    assert result.memory[base] == 7


def test_outputs_keyed_by_instruction():
    b = GraphBuilder("multi_out")
    t = b.entry(2)
    b.output(b.mul(t, t), label="square")
    b.output(b.add(t, t), label="double")
    graph = b.finalize()
    result = interpret(graph)
    assert result.output_values() == [4, 4]
    assert len(result.outputs) == 2
