"""Text-mode visualisations of the paper's figures.

Everything in this reproduction runs in terminals and CI logs, so the
figures render as ASCII: a scatter plot for the Pareto analyses
(Figures 6-7) and stacked bars for the traffic distribution
(Figure 8).  The benchmarks embed these renderings in their result
artifacts.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..design.pareto import ParetoPoint, frontier_rows, pareto_front


def scatter(
    points: Sequence[ParetoPoint],
    width: int = 68,
    height: int = 18,
    title: str = "",
) -> str:
    """An area-vs-performance scatter with the Pareto front marked.

    ``*`` marks Pareto-optimal points, ``.`` the dominated ones; axes
    are linear, labelled with their ranges.
    """
    if not points:
        return "(no points)"
    xs = [p.area for p in points]
    ys = [p.performance for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x_span = (x1 - x0) or 1.0
    y_span = (y1 - y0) or 1.0
    grid = [[" "] * width for _ in range(height)]
    front = {id(p) for p in pareto_front(points)}

    def cell(p: ParetoPoint) -> tuple[int, int]:
        col = round((p.area - x0) / x_span * (width - 1))
        row = round((p.performance - y0) / y_span * (height - 1))
        return (height - 1 - row), col

    # Dominated points first so front markers overwrite them.
    for p in sorted(points, key=lambda p: id(p) in front):
        r, c = cell(p)
        grid[r][c] = "*" if id(p) in front else "."

    lines = []
    if title:
        lines.append(title)
    lines.append(f"AIPC {y1:.2f} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 10 + "|" + "".join(row) + "|")
    lines.append(f"AIPC {y0:.2f} +" + "-" * width + "+")
    lines.append(
        " " * 11 + f"{x0:<10.0f}" + f"area (mm^2)".center(width - 20)
        + f"{x1:>10.0f}"
    )
    lines.append(" " * 11 + "* Pareto optimal   . dominated")
    return "\n".join(lines)


def stacked_bar(
    fractions: Mapping[str, float],
    order: Sequence[str],
    width: int = 60,
    glyphs: Mapping[str, str] | None = None,
) -> str:
    """One horizontal stacked bar (a Figure 8 row)."""
    glyphs = glyphs or {}
    default_glyphs = "#=+-:~"
    bar = []
    for index, key in enumerate(order):
        frac = max(0.0, fractions.get(key, 0.0))
        glyph = glyphs.get(key, default_glyphs[index % len(default_glyphs)])
        bar.append(glyph * round(frac * width))
    text = "".join(bar)[:width]
    return text.ljust(width, " ")


def traffic_chart(
    profiles: Mapping[str, Mapping[str, float]],
    width: int = 56,
) -> str:
    """Figure 8: one stacked bar per workload group.

    Levels are drawn innermost-first, so locality reads left to right:
    ``#`` pod, ``=`` domain, ``+`` cluster, ``!`` inter-cluster.
    """
    order = ("pod", "domain", "cluster", "grid")
    glyphs = {"pod": "#", "domain": "=", "cluster": "+", "grid": "!"}
    label_width = max(len(name) for name in profiles) + 2
    lines = [
        " " * label_width
        + "# pod   = domain   + cluster   ! inter-cluster"
    ]
    for name, profile in profiles.items():
        bar = stacked_bar(profile, order, width, glyphs)
        grid_pct = profile.get("grid", 0.0)
        lines.append(
            f"{name:<{label_width}}|{bar}| grid {grid_pct:.1%}"
        )
    return "\n".join(lines)


def pareto_table(points: Sequence[ParetoPoint]) -> str:
    """Render Table 5-style frontier rows as text."""
    lines = [
        f"{'id':>3} {'configuration':<42} {'area':>7} {'AIPC':>6} "
        f"{'dA%':>6} {'dAIPC%':>7}"
    ]
    for i, row in enumerate(frontier_rows(points), start=1):
        da = f"{row.area_increase * 100:.1f}%" if row.area_increase is not \
            None else "na"
        dp = f"{row.perf_increase * 100:.1f}%" if row.perf_increase is not \
            None else "na"
        lines.append(
            f"{i:>3} {row.point.label:<42} {row.point.area:>7.0f} "
            f"{row.point.performance:>6.2f} {da:>6} {dp:>7}"
        )
    return "\n".join(lines)


def comparison_table(
    rows: Sequence[tuple[str, float, float]],
    headers: tuple[str, str, str] = ("metric", "paper", "measured"),
) -> str:
    """Paper-vs-measured table used by EXPERIMENTS.md tooling."""
    name_w = max(len(headers[0]), *(len(r[0]) for r in rows)) + 2
    lines = [
        f"{headers[0]:<{name_w}}{headers[1]:>12}{headers[2]:>12}{'ratio':>9}"
    ]
    for name, paper, measured in rows:
        ratio = measured / paper if paper else float("nan")
        lines.append(
            f"{name:<{name_w}}{paper:>12.3g}{measured:>12.3g}{ratio:>9.2f}"
        )
    return "\n".join(lines)
