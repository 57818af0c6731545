"""Text-mode renderings of the paper's figures (scatter plots,
traffic bars, Pareto tables)."""

from .fullreport import generate_report
from .plots import (
    pareto_table,
    scatter,
    stacked_bar,
    traffic_chart,
)

__all__ = [
    "generate_report",
    "pareto_table",
    "scatter",
    "stacked_bar",
    "traffic_chart",
]
