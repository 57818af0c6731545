"""One seeded-defect test per graph rule (G000-G011).

Each test constructs the smallest graph exhibiting exactly the flaw
the rule hunts, then asserts the rule (its diagnostics picked out by
rule id, so sibling rules cannot mask a regression) produces a
diagnostic.
"""

from repro.analysis import Severity, analyze_graph
from repro.isa import (
    DataflowGraph,
    Dest,
    Instruction,
    Opcode,
    WaveAnnotation,
    make_token,
)
from repro.isa.waves import UNKNOWN, WAVE_END, WAVE_START
from repro.lang.builder import MAX_FANOUT


def rules_fired(graph, *rule_ids):
    return [d for d in analyze_graph(graph).diagnostics
            if d.rule in rule_ids]


def clean_graph():
    """i0 (entry NOP) -> i1 (OUTPUT): lints with zero diagnostics."""
    return DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NOP, dests=(Dest(1, 0),)),
            Instruction(1, Opcode.OUTPUT),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 5)],
        name="clean",
    )


def test_clean_graph_has_no_findings():
    assert analyze_graph(clean_graph()).diagnostics == []


def test_g000_structural_integrity():
    graph = clean_graph()
    graph.instructions[1] = Instruction(7, Opcode.OUTPUT)  # sparse ids
    diags = rules_fired(graph, "G000")
    assert diags and diags[0].severity is Severity.ERROR
    assert "dense" in diags[0].message


def test_g001_never_firing_input():
    # ADD has arity 2 but only port 0 is fed.
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.ADD, dests=(Dest(1, 0),)),
            Instruction(1, Opcode.OUTPUT),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 1)],
        name="halfadd",
    )
    diags = rules_fired(graph, "G001")
    assert len(diags) == 1
    assert diags[0].severity is Severity.ERROR
    assert "no producer" in diags[0].message
    assert diags[0].location == "i0"


def test_g002_unreachable_instructions():
    # i2 <-> i3 feed each other, so G001 is silent, but no entry
    # token can ever reach the pair.
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NOP, dests=(Dest(1, 0),)),
            Instruction(1, Opcode.OUTPUT),
            Instruction(2, Opcode.NOP, dests=(Dest(3, 0),)),
            Instruction(3, Opcode.NOP, dests=(Dest(2, 0),)),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 1)],
        name="island",
    )
    diags = rules_fired(graph, "G002")
    assert {d.location for d in diags} == {"i2", "i3"}
    assert all(d.severity is Severity.WARNING for d in diags)


def test_g003_dangling_result():
    graph = DataflowGraph(
        instructions=[Instruction(0, Opcode.ADD)],
        entry_tokens=[
            make_token(0, 0, 0, 0, 1),
            make_token(0, 0, 0, 1, 2),
        ],
        name="dangle",
    )
    diags = rules_fired(graph, "G003")
    assert len(diags) == 1
    assert "silently discarded" in diags[0].message


def test_g003_exempts_discard_nops():
    # A destination-less NOP is the builder's deliberate discard sink
    # (loop landing pads); it must not warn.
    graph = DataflowGraph(
        instructions=[Instruction(0, Opcode.NOP)],
        entry_tokens=[make_token(0, 0, 0, 0, 1)],
        name="sink",
    )
    assert rules_fired(graph, "G003") == []


def _memory_graph(*annotations):
    """One LOAD per annotation, each feeding an OUTPUT."""
    n = len(annotations)
    insts = []
    tokens = []
    for i, ann in enumerate(annotations):
        insts.append(Instruction(
            i, Opcode.LOAD, dests=(Dest(n + i, 0),), wave_annotation=ann
        ))
        tokens.append(make_token(0, 0, i, 0, i))
    insts.extend(Instruction(n + i, Opcode.OUTPUT) for i in range(n))
    return DataflowGraph(
        instructions=insts, entry_tokens=tokens, name="mem"
    )


def test_g004_duplicate_wave_sequence():
    graph = _memory_graph(
        WaveAnnotation(prev=WAVE_START, this=0, next=WAVE_END),
        WaveAnnotation(prev=WAVE_START, this=0, next=WAVE_END),
    )
    diags = rules_fired(graph, "G004")
    assert len(diags) == 1
    assert "duplicate wave sequence number" in diags[0].message


def test_g005_dangling_wave_link():
    graph = _memory_graph(
        WaveAnnotation(prev=5, this=7, next=WAVE_END),
    )
    diags = rules_fired(graph, "G005")
    assert len(diags) == 1
    assert "names nonexistent" in diags[0].message


def test_g006_unorderable_memory_op():
    graph = _memory_graph(
        WaveAnnotation(prev=UNKNOWN, this=0, next=WAVE_END),
    )
    diags = rules_fired(graph, "G006")
    assert len(diags) == 1
    assert "wave ordering would deadlock" in diags[0].message


def test_g007_unterminable_wave_region():
    graph = _memory_graph(
        WaveAnnotation(prev=WAVE_START, this=0, next=UNKNOWN),
    )
    diags = rules_fired(graph, "G007")
    assert len(diags) == 1
    assert "WAVE_END" in diags[0].message


def test_g008_arithmetic_predicate_warns():
    # ADD result wired to a STEER predicate port: suspicious.
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.ADD, dests=(Dest(1, 1),)),
            Instruction(1, Opcode.STEER, dests=(Dest(2, 0),)),
            Instruction(2, Opcode.OUTPUT),
        ],
        entry_tokens=[
            make_token(0, 0, 0, 0, 1),
            make_token(0, 0, 0, 1, 2),
            make_token(0, 0, 1, 0, 3),  # STEER data
        ],
        name="badpred",
    )
    diags = rules_fired(graph, "G008")
    assert len(diags) == 1
    assert "does not produce a 0/1 value" in diags[0].message


def test_g008_constant_through_identity_is_clean():
    # Regression: CONST routed through a NOP (identity) into the
    # predicate port is predicate-shaped; the historical heuristic
    # false-positived here.
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.CONST, dests=(Dest(1, 0),),
                        immediate=1),
            Instruction(1, Opcode.NOP, dests=(Dest(2, 1),)),
            Instruction(2, Opcode.STEER, dests=(Dest(3, 0),)),
            Instruction(3, Opcode.OUTPUT),
        ],
        entry_tokens=[
            make_token(0, 0, 0, 0, 0),  # CONST trigger
            make_token(0, 0, 2, 0, 42),  # STEER data
        ],
        name="goodpred",
    )
    assert rules_fired(graph, "G008") == []


def test_g008_conversion_chain_is_clean():
    # Comparison -> F2I -> STEER predicate: conversions preserve
    # zero/nonzero, so this must stay quiet too.
    graph = DataflowGraph(
        instructions=[
            Instruction(0, Opcode.LT, dests=(Dest(1, 0),)),
            Instruction(1, Opcode.F2I, dests=(Dest(2, 1),)),
            Instruction(2, Opcode.STEER, dests=(Dest(3, 0),)),
            Instruction(3, Opcode.OUTPUT),
        ],
        entry_tokens=[
            make_token(0, 0, 0, 0, 1),
            make_token(0, 0, 0, 1, 2),
            make_token(0, 0, 2, 0, 7),
        ],
        name="convpred",
    )
    assert rules_fired(graph, "G008") == []


def test_g009_fanout_over_limit():
    width = MAX_FANOUT + 1
    insts = [Instruction(
        0, Opcode.NOP, dests=tuple(Dest(1 + i, 0) for i in range(width))
    )]
    insts.extend(Instruction(1 + i, Opcode.OUTPUT) for i in range(width))
    graph = DataflowGraph(
        instructions=insts,
        entry_tokens=[make_token(0, 0, 0, 0, 1)],
        name="wide",
    )
    diags = rules_fired(graph, "G009")
    assert len(diags) == 1
    assert f"fan-out limit of {MAX_FANOUT}" in diags[0].message


def test_g010_unbalanced_rendezvous():
    # ADD port 1 is fed directly from entry; port 0 arrives through a
    # long NOP chain, parking the early operand in the matching table.
    chain = 30
    insts = [
        Instruction(i, Opcode.NOP, dests=(Dest(i + 1, 0),))
        for i in range(chain)
    ]
    add = chain
    insts[chain - 1] = Instruction(
        chain - 1, Opcode.NOP, dests=(Dest(add, 0),)
    )
    insts.append(Instruction(add, Opcode.ADD, dests=(Dest(add + 1, 0),)))
    insts.append(Instruction(add + 1, Opcode.OUTPUT))
    graph = DataflowGraph(
        instructions=insts,
        entry_tokens=[
            make_token(0, 0, 0, 0, 1),
            make_token(0, 0, add, 1, 2),
        ],
        name="skewed",
    )
    diags = rules_fired(graph, "G010")
    assert len(diags) == 1
    assert "matching-table row" in diags[0].message


def test_g011_unobservable_program():
    graph = DataflowGraph(
        instructions=[Instruction(0, Opcode.NOP)],
        entry_tokens=[make_token(0, 0, 0, 0, 1)],
        name="blind",
    )
    diags = rules_fired(graph, "G011")
    assert len(diags) == 1
    assert "no OUTPUT" in diags[0].message


def test_crashing_rule_is_isolated():
    # A rule that raises must become an X000 diagnostic, not abort
    # the pass.
    from repro.analysis import GRAPH_RULES, Rule, register

    def bad_rule(graph):
        raise RuntimeError("boom")

    register(Rule(
        rule_id="G999", title="always crashes", target="graph",
        check=bad_rule,
    ))
    try:
        report = analyze_graph(clean_graph())
        crash = [d for d in report.diagnostics if d.rule == "X000"]
        assert len(crash) == 1
        assert "G999" in crash[0].message
        assert "boom" in crash[0].message
    finally:
        GRAPH_RULES.pop("G999", None)
