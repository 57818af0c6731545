"""Tests for the one-shot markdown report."""

from repro.report import generate_report
from repro.workloads import Scale, WORKLOADS


def test_report_sections_present(paper_report):
    text = generate_report(scale=Scale.TINY, sample=40,
                           timestamp="TESTSTAMP")
    assert "TESTSTAMP" in text
    for heading in ("## Area model", "## Workload characterisation",
                    "## Splash2 Pareto sweep", "## Traffic locality"):
        assert heading in text
    for name in WORKLOADS:
        assert name in text
    # The frontier bullet list renders with areas and AIPC.
    assert "mm²" in text and "AIPC" in text
