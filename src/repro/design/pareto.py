"""Pareto-frontier extraction over (area, performance) points.

Used for Figures 6 and 7 and Table 5: a configuration is Pareto
optimal when no other configuration is both smaller *and* at least as
fast (the paper circles these points; "there are no configurations
that are smaller and achieve better performance").

Tie and degeneracy semantics (load-bearing for the surrogate-guided
sweep, which compares frontiers bit-for-bit across search strategies):

* **Equal area, different performance** -- only the fastest point at
  that area can be on the frontier.
* **Equal area *and* equal performance** -- exactly one point
  survives: the *earliest in input order* (Python's stable sort makes
  this deterministic).  Duplicate designs therefore never produce
  duplicate frontier rows, and which duplicate represents the pair is
  a pure function of the input sequence.
* **Non-finite coordinates** -- a NaN or infinite ``area`` /
  ``performance`` is rejected with :class:`ValueError` naming the
  offending point.  NaN comparisons are silently false, so admitting
  one would make "dominated" quietly non-transitive and the frontier
  order-dependent; failing loudly is the only sound behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class ParetoPoint:
    """One evaluated design."""

    label: str
    area: float
    performance: float
    payload: object = None


def _require_finite(point: ParetoPoint) -> ParetoPoint:
    """Reject NaN/infinite coordinates with a clear error (see module
    docstring); returns the point so scans can validate inline."""
    if not (math.isfinite(point.area)
            and math.isfinite(point.performance)):
        raise ValueError(
            f"non-finite ParetoPoint {point.label!r}: "
            f"area={point.area!r}, performance={point.performance!r}"
        )
    return point


def is_dominated(point: ParetoPoint, others: Iterable[ParetoPoint]) -> bool:
    """True if some other point is no larger and no slower, and
    strictly better in at least one dimension.  An exact
    (area, performance) duplicate does NOT dominate -- neither point
    is strictly better; :func:`pareto_front` breaks that tie by input
    order instead."""
    _require_finite(point)
    for other in others:
        if other is point:
            continue
        _require_finite(other)
        if (
            other.area <= point.area
            and other.performance >= point.performance
            and (
                other.area < point.area
                or other.performance > point.performance
            )
        ):
            return True
    return False


def pareto_front(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """The non-dominated subset, sorted by ascending area (and
    strictly ascending performance).

    O(n log n): sweep by increasing area, keep points that improve the
    best performance seen so far.  Ties in area keep only the fastest;
    exact (area, performance) duplicates keep only the earliest in
    input order; non-finite coordinates raise :class:`ValueError`
    (module docstring has the full semantics).
    """
    ordered = sorted(
        (_require_finite(p) for p in points),
        key=lambda p: (p.area, -p.performance),
    )
    front: list[ParetoPoint] = []
    best = float("-inf")
    for point in ordered:
        if point.performance > best:
            front.append(point)
            best = point.performance
    return front


@dataclass(frozen=True)
class FrontierRow:
    """One row of a Table 5-style frontier report."""

    point: ParetoPoint
    area_increase: float | None  # vs previous frontier row
    perf_increase: float | None


def frontier_rows(points: Sequence[ParetoPoint]) -> list[FrontierRow]:
    """Table 5's incremental columns: area and AIPC increase over the
    previous Pareto-optimal configuration."""
    front = pareto_front(points)
    rows: list[FrontierRow] = []
    prev: ParetoPoint | None = None
    for point in front:
        if prev is None:
            rows.append(FrontierRow(point, None, None))
        else:
            rows.append(
                FrontierRow(
                    point,
                    point.area / prev.area - 1.0,
                    point.performance / prev.performance - 1.0
                    if prev.performance
                    else None,
                )
            )
        prev = point
    return rows


def best_performance_per_area(
    points: Sequence[ParetoPoint],
) -> ParetoPoint:
    """The design with the highest performance/area ratio (the paper's
    configuration 'c' criterion)."""
    if not points:
        raise ValueError("no points")
    return max(points, key=lambda p: (p.performance / p.area, -p.area))
