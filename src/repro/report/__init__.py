"""Text-mode renderings of the paper's figures (scatter plots,
traffic bars, comparison tables)."""

from .fullreport import generate_report
from .plots import (
    comparison_table,
    pareto_table,
    scatter,
    stacked_bar,
    traffic_chart,
)

__all__ = [
    "comparison_table",
    "generate_report",
    "pareto_table",
    "scatter",
    "stacked_bar",
    "traffic_chart",
]
