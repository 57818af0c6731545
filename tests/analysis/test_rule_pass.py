"""One rule pass computes each shared fact once -- and keeps none.

``analyze_graph`` hands its built-in rules one ``GraphFacts`` per
call, so the structural scan and the token flow run once however many
rules read them.  Graphs are mutable, so nothing may survive the call:
a second pass over a graph edited in place must see the edit.
"""

from collections import Counter

import pytest

from repro.analysis import (
    GRAPH_RULES,
    Diagnostic,
    Rule,
    Severity,
    analyze_graph,
    dataflow,
    lint_graph,
    register,
)
from repro.isa import (
    DataflowGraph,
    Dest,
    Instruction,
    Opcode,
    make_token,
)
from repro.workloads import WORKLOADS, Scale


def island_graph():
    """i1's port 1 is wired to the i2 <-> i3 island, which no entry
    token reaches: a deadlock only the token flow can prove (A001)."""
    return DataflowGraph(
        instructions=[
            Instruction(0, Opcode.NOP, dests=(Dest(1, 0),)),
            Instruction(1, Opcode.ADD, dests=(Dest(4, 0),)),
            Instruction(2, Opcode.NOP, dests=(Dest(3, 0),)),
            Instruction(3, Opcode.NOP, dests=(Dest(2, 0), Dest(1, 1))),
            Instruction(4, Opcode.OUTPUT),
        ],
        entry_tokens=[make_token(0, 0, 0, 0, 1)],
        name="island",
    )


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``validate()`` and token-flow computations."""
    counts = Counter()
    validate = DataflowGraph.validate
    analyze_tokens = dataflow.analyze_tokens

    def counting_validate(self):
        counts["validate"] += 1
        return validate(self)

    def counting_tokens(*args, **kwargs):
        counts["flow"] += 1
        return analyze_tokens(*args, **kwargs)

    monkeypatch.setattr(DataflowGraph, "validate", counting_validate)
    monkeypatch.setattr(dataflow, "analyze_tokens", counting_tokens)
    return counts


def rule_ids(report):
    return sorted({d.rule for d in report.diagnostics})


def test_one_pass_scans_once_and_flows_once(calls):
    report = analyze_graph(island_graph())
    assert calls == {"validate": 1, "flow": 1}
    assert "A001" in rule_ids(report)
    calls.clear()
    lint_graph(island_graph())
    assert calls == {"validate": 1, "flow": 1}


def test_building_a_workload_flows_once(calls):
    WORKLOADS["gzip"].instantiate(scale=Scale.TINY)  # finalize verifies
    assert calls == {"validate": 1, "flow": 1}


def test_rule_selection_still_works(calls):
    graph = island_graph()
    assert analyze_graph(graph, only=["A002"]).diagnostics == []
    assert calls == {"validate": 1, "flow": 1}
    calls.clear()
    assert "A001" not in rule_ids(analyze_graph(graph, ignore=["A001"]))
    assert calls == {"validate": 1, "flow": 1}  # A002 still asks
    calls.clear()
    assert rule_ids(analyze_graph(graph, only=["A001"])) == ["A001"]
    analyze_graph(graph, only=["G003"])
    assert calls == {"validate": 2, "flow": 1}  # nobody asked the 2nd time


def test_third_party_rule_with_the_plain_signature_runs(calls):
    seen = []

    def check(graph):
        seen.append(graph)
        return [Diagnostic(rule="T001", severity=Severity.INFO,
                           message="seen", source=graph.name)]

    register(Rule(rule_id="T001", title="third party", target="graph",
                  check=check, default_severity=Severity.INFO))
    try:
        graph = island_graph()
        assert "T001" in rule_ids(analyze_graph(graph))
        assert rule_ids(analyze_graph(graph, only=["T001"])) == ["T001"]
    finally:
        del GRAPH_RULES["T001"]
    assert seen == [graph, graph]
    assert calls == {"validate": 1, "flow": 1}


def test_a_pass_never_serves_facts_from_an_earlier_one():
    graph = island_graph()
    assert "A001" in rule_ids(analyze_graph(graph))
    # An entry token wakes the island: the proof is gone.
    graph.entry_tokens.append(make_token(0, 0, 2, 0, 1))
    assert not analyze_graph(graph).has_errors
    # Cut i3 -> i1[1] by replacing i3 in place: now a structural hole,
    # which is G001's to report, not A001's.
    graph.instructions[3] = Instruction(3, Opcode.NOP, dests=(Dest(2, 0),))
    errors = analyze_graph(graph).errors
    assert [(d.rule, d.location) for d in errors] == [("G001", "i1")]
    # Corrupt it in place: only G000 speaks, every other rule stands
    # down (the token flow is not defined on a corrupt graph).
    graph.instructions[4] = Instruction(9, Opcode.OUTPUT)
    assert rule_ids(analyze_graph(graph)) == ["G000"]


def test_backstop_warning_names_the_limit_that_was_hit(calls):
    graph = WORKLOADS["gzip"].instantiate(scale=Scale.TINY)
    calls.clear()
    assert dataflow.analyze_dataflow(graph).diagnostics == []
    assert calls["flow"] == 1
    cut_short = dataflow.analyze_tokens(graph, max_rounds=3)
    (diag,) = dataflow._backstop_warnings(graph, cut_short)
    assert diag.rule == "A002"
    assert "hit the 3-round backstop" in diag.message
