"""Unit tests for DataflowGraph structure and validation."""

import pytest

from repro.isa import (
    DataflowGraph,
    Dest,
    GraphVerificationError,
    Instruction,
    Opcode,
    WaveAnnotation,
    make_token,
    verify_graph,
)
from repro.isa.waves import WAVE_END, WAVE_START


def two_inst_graph():
    """i0 (entry NOP) -> i1 (OUTPUT)."""
    return DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NOP, dests=(Dest(1, 0),)),
            Instruction(1, Opcode.OUTPUT),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 5)],
        name="tiny",
    )


def test_validate_accepts_wellformed():
    two_inst_graph().validate()


def test_validate_rejects_sparse_ids():
    graph = two_inst_graph()
    graph.instructions[1] = Instruction(7, Opcode.OUTPUT)
    with pytest.raises(ValueError, match="dense"):
        graph.validate()


def test_validate_rejects_out_of_range_dest():
    graph = DataflowGraph(
        instructions=[Instruction(0, Opcode.NOP, dests=(Dest(5, 0),))],
        entry_tokens=[make_token(0, 0, 0, 0, 1)],
    )
    with pytest.raises(ValueError, match="nonexistent"):
        graph.validate()


def test_validate_rejects_bad_port():
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NOP, dests=(Dest(1, 1),)),  # NOP arity 1
            Instruction(1, Opcode.NOP),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 1), make_token(0, 0, 1, 0, 1)],
    )
    with pytest.raises(ValueError, match="port"):
        graph.validate()


def test_validate_rejects_bad_entry_token():
    graph = two_inst_graph()
    graph.entry_tokens.append(make_token(0, 0, 99, 0, 1))
    with pytest.raises(ValueError, match="nonexistent"):
        graph.validate()


def test_memory_instruction_requires_annotation():
    with pytest.raises(ValueError, match="wave annotation"):
        Instruction(0, Opcode.LOAD)


def test_non_memory_instruction_rejects_annotation():
    with pytest.raises(ValueError, match="must not carry"):
        Instruction(
            0, Opcode.ADD,
            wave_annotation=WaveAnnotation(WAVE_START, 0, WAVE_END),
        )


def test_false_dests_only_on_steers():
    with pytest.raises(ValueError, match="false destinations"):
        Instruction(0, Opcode.ADD, false_dests=(Dest(0, 0),))


def test_verify_detects_unfed_port():
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.ADD, dests=()),  # ADD needs 2 inputs
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 1)],  # only port 0 fed
    )
    with pytest.raises(GraphVerificationError, match="no producer"):
        verify_graph(graph)


def test_verify_detects_unterminated_wave_region():
    graph = DataflowGraph(
        instructions=[
            Instruction(
                0, Opcode.MEMORY_NOP,
                wave_annotation=WaveAnnotation(WAVE_START, 0, -1),  # UNKNOWN
            ),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 1)],
    )
    with pytest.raises(GraphVerificationError, match="WAVE_END"):
        verify_graph(graph)


def test_verify_requires_outputs_when_asked():
    # A program without OUTPUT verifies (G011 is a warning); a caller
    # that needs observable results asks the graph for its outputs.
    from repro.analysis import analyze_graph

    graph = DataflowGraph(
        instructions=[Instruction(0, Opcode.NOP)],
        entry_tokens=[make_token(0, 0, 0, 0, 1)],
    )
    verify_graph(graph)
    assert graph.output_instruction_ids() == []
    assert [d.rule for d in analyze_graph(graph)] == ["G011"]


def test_producers_and_edges():
    graph = two_inst_graph()
    assert [src for src, dest in graph.edges() if dest.inst == 1] == [0]
    assert list(graph.edges()) == [(0, Dest(1, 0))]


def test_alpha_equivalent_ids():
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NOP, dests=(Dest(1, 0), Dest(1, 1))),
            Instruction(1, Opcode.ADD),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 1)],
    )
    assert graph.alpha_equivalent_ids() == frozenset({1})
