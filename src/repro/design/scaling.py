"""Naive tile-replication analysis (Section 4.2, Figure 7).

The paper's "scalable design points" experiment: take a one-cluster
tile and replicate it 4x or 16x, then compare the result against the
true Pareto frontier.  The headline findings this module reproduces:

* replicating the best-*performing* one-cluster tile ('a') gives a
  four-cluster design ('b') far off the frontier,
* replicating the best *performance-per-area* tile ('c') lands nearly
  on the frontier ('d') at almost identical performance to 'b',
* but scaling 'c' to 16 clusters is again inefficient; a leaner tile
  ('e') wins -- the optimal tile varies with processor size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..area.model import chip_area
from ..core.config import WaveScalarConfig
from .pareto import ParetoPoint, best_performance_per_area, pareto_front


@dataclass(frozen=True)
class ScaledDesign:
    """A tile replicated to a larger cluster count."""

    base: WaveScalarConfig
    factor: int
    config: WaveScalarConfig
    area_mm2: float


def replicate(config: WaveScalarConfig, factor: int) -> ScaledDesign:
    """Replicate ``config``'s cluster tile ``factor`` times.

    The L2 is per-chip in the model, so naive replication scales it
    with the tile count as the paper does when scaling design 'a'
    (4 MB L2 x 4 clusters -> 16 MB).
    """
    scaled = replace(
        config,
        clusters=config.clusters * factor,
        l2_mb=config.l2_mb * factor,
    )
    return ScaledDesign(
        base=config,
        factor=factor,
        config=scaled,
        area_mm2=chip_area(scaled),
    )


@dataclass(frozen=True)
class ScalingStudy:
    """The five named configurations of Figure 7."""

    a: ParetoPoint  # best one-cluster performance (the "knee")
    b: ScaledDesign  # a x4: naive scaling, off-frontier
    c: ParetoPoint  # best one-cluster performance/area
    d: ScaledDesign  # c x4: near-frontier
    e: ParetoPoint  # smallest Pareto-optimal 4-cluster design
    e16: ScaledDesign  # e's tile x4 (16 clusters total)


def run_scaling_study(evaluated: Sequence[ParetoPoint]) -> ScalingStudy:
    """Identify a/c/e among ``evaluated`` one- and four-cluster points
    and construct the replicated designs b/d/e16 (for the caller to
    measure).  ``evaluated`` must be ParetoPoints whose payloads are
    :class:`WaveScalarConfig`.
    """
    singles = [
        p for p in evaluated
        if isinstance(p.payload, WaveScalarConfig) and p.payload.clusters == 1
    ]
    quads = [
        p for p in evaluated
        if isinstance(p.payload, WaveScalarConfig) and p.payload.clusters == 4
    ]
    if not singles or not quads:
        raise ValueError("need evaluated 1- and 4-cluster configurations")

    # 'a' is the knee-top: the best-performing one-cluster design.
    # Performance plateaus across the knee (the paper's points between
    # 'c' and 'a' buy "minimal performance gains"), so ties within 2%
    # resolve toward the *largest* design -- the paper's 'a' is both
    # the fastest and the biggest single-cluster point.
    best_perf = max(p.performance for p in singles)
    knee = [p for p in singles if p.performance >= 0.98 * best_perf]
    a = max(knee, key=lambda p: (p.area, p.performance))
    c = best_performance_per_area(singles)
    quad_front = pareto_front(quads)
    e = quad_front[0]  # smallest Pareto-optimal 4-cluster design

    b = replicate(a.payload, 4)
    d = replicate(c.payload, 4)
    e16 = replicate(e.payload, 4)
    return ScalingStudy(a=a, b=b, c=c, d=d, e=e, e16=e16)
