"""Tests for the text-mode figure renderers."""

from repro.design.pareto import ParetoPoint
from repro.report import (
    scatter,
    stacked_bar,
    traffic_chart,
)


def points(*pairs):
    return [
        ParetoPoint(f"p{i}", a, p) for i, (a, p) in enumerate(pairs)
    ]


def test_scatter_marks_front_and_dominated():
    pts = points((40, 1.0), (100, 2.0), (120, 1.5), (200, 3.0))
    text = scatter(pts, title="demo")
    assert "demo" in text
    assert "*" in text  # front members
    assert "." in text  # the dominated (120, 1.5) point
    assert "40" in text and "200" in text  # axis labels


def test_scatter_single_point():
    text = scatter(points((50, 1.0)))
    assert "*" in text


def test_scatter_empty():
    assert scatter([]) == "(no points)"


def test_scatter_constant_performance():
    # Degenerate spans must not divide by zero.
    text = scatter(points((40, 1.0), (80, 1.0)))
    assert "*" in text


def test_stacked_bar_width_and_composition():
    bar = stacked_bar(
        {"a": 0.5, "b": 0.25, "c": 0.25}, order=("a", "b", "c"), width=40
    )
    assert len(bar) == 40
    assert bar.count("#") == 20  # first glyph, 50%


def test_traffic_chart_shape():
    chart = traffic_chart({
        "Spec": {"pod": 0.4, "domain": 0.2, "cluster": 0.38,
                 "grid": 0.02},
        "Splash2": {"pod": 0.45, "domain": 0.15, "cluster": 0.36,
                    "grid": 0.04},
    })
    assert "Spec" in chart and "Splash2" in chart
    assert "grid 2.0%" in chart
    assert "#" in chart and "=" in chart and "+" in chart
