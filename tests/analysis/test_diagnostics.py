"""Unit tests for Diagnostic / Report primitives."""

import json

from repro.analysis import Diagnostic, Report, Severity


def make(rule="G001", severity=Severity.ERROR, **kw):
    defaults = dict(
        message="something is wrong", source="gzip", location="i3",
        hint="fix it",
    )
    defaults.update(kw)
    return Diagnostic(rule=rule, severity=severity, **defaults)


def test_render_full():
    text = make().render()
    assert text == (
        "error[G001] gzip @ i3: something is wrong (fix: fix it)"
    )


def test_render_minimal():
    d = Diagnostic(
        rule="C001", severity=Severity.WARNING, message="oops"
    )
    assert d.render() == "warning[C001]: oops"


def test_dict_round_trip():
    d = make()
    assert Diagnostic.from_dict(d.to_dict()) == d


def test_severity_rank_order():
    assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank


def test_report_sorting_and_counts():
    report = Report([
        make(rule="G011", severity=Severity.INFO),
        make(rule="G002", severity=Severity.WARNING),
        make(rule="G001", severity=Severity.ERROR),
        make(rule="G004", severity=Severity.ERROR),
    ])
    ordered = [d.rule for d in report.sorted()]
    assert ordered == ["G001", "G004", "G002", "G011"]
    assert len(report.errors) == 2
    assert len(report.warnings) == 1
    assert len(report.infos) == 1
    assert report.has_errors


def test_report_render_hides_info_on_request():
    report = Report([
        make(rule="G011", severity=Severity.INFO),
        make(rule="G002", severity=Severity.WARNING),
    ])
    assert "G011" in report.render()
    assert "G011" not in report.render(show_info=False)
    assert report.summary() in report.render(show_info=False)


def test_report_json():
    report = Report([make()])
    data = json.loads(report.to_json())
    assert data["errors"] == 1
    assert data["warnings"] == 0
    assert data["diagnostics"][0]["rule"] == "G001"
    assert Diagnostic.from_dict(data["diagnostics"][0]) == make()


def test_report_dedup_collapses_identical_findings():
    report = Report([
        make(message="dup"),
        make(message="dup"),
        make(message="dup", location="i9"),  # different location: kept
        make(message="other"),
    ])
    dropped = report.dedup()
    assert dropped == 1
    assert [d.message for d in report] == ["dup", "dup", "other"]
    # Idempotent.
    assert report.dedup() == 0


def test_report_counts_by_rule_sorted_by_rule_id():
    report = Report([
        make(rule="G005"),
        make(rule="G001", message="a"),
        make(rule="G001", message="b"),
        make(rule="A001"),
    ])
    assert report.counts_by_rule() == {"A001": 1, "G001": 2, "G005": 1}
    assert list(report.counts_by_rule()) == ["A001", "G001", "G005"]


def test_engine_reports_are_deduplicated():
    """A rule emitting the same (rule, location, message) twice
    surfaces once in the engine's report."""
    from repro.analysis.engine import GRAPH_RULES, Rule, analyze_graph

    def noisy(graph):
        diag = Diagnostic(rule="G999", severity=Severity.WARNING,
                          message="same thing", location="i0")
        return [diag, diag]

    GRAPH_RULES["G999"] = Rule(
        rule_id="G999", title="noisy", target="graph", check=noisy,
        default_severity=Severity.WARNING,
    )
    try:
        from repro.isa import DataflowGraph, Instruction, Opcode, make_token

        graph = DataflowGraph(
            instructions=[Instruction(0, Opcode.OUTPUT)],
            entry_tokens=[make_token(0, 0, 0, 0, 1)],
            name="t",
        )
        report = analyze_graph(graph)
        assert [d.rule for d in report.diagnostics].count("G999") == 1
    finally:
        del GRAPH_RULES["G999"]
