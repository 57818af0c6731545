"""Design-space enumeration and pruning (Section 4.2).

The paper sweeps seven parameters (Table 3 ranges), yielding "over
twenty-one thousand" raw configurations (our grids: 31,752), then prunes:

1. die area bounded at 400 mm^2,
2. balance rules -- "it makes no sense to have more than one domain if
   the design contains fewer than eight PEs per domain" and "if there
   are fewer than four domains in the design, there should be only one
   cluster" (plus "a few more like them"),
3. a single processor-wide virtualization ratio M/V (chosen as 1 after
   the Table 4 analysis),
4. at least 4K total instruction capacity.

This module reproduces that funnel.  Discrete parameter grids are
power-of-two steps over the published ranges.  Ours runs 31,752 ->
1,534 balanced -> 68 viable against the paper's 21,000+ -> 344 -> 41:
our grids have more L1/L2 steps, and only two of the balance rules are
the paper's own (it does not name the rest).  The balance and ratio
rules are functions of grid values, so :func:`viable_designs` builds
only the points they admit; the tests hold it to
``prune(enumerate_raw(), ...)``, the same funnel entered at the top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..area.model import MAX_DIE_MM2, chip_area
from ..area.timing import meets_clock_target
from ..core.config import WaveScalarConfig

#: Discrete grids over the Table 3 ranges (power-of-two steps).
CLUSTER_CHOICES = (1, 2, 4, 8, 16, 32, 64)
DOMAIN_CHOICES = (1, 2, 4)
PE_CHOICES = (2, 4, 8)
VIRT_CHOICES = (8, 16, 32, 64, 128, 256)
MATCHING_CHOICES = (16, 32, 64, 128)
L1_CHOICES = (8, 16, 32)
L2_CHOICES = (0, 1, 2, 4, 8, 16, 32)

#: Minimum whole-processor instruction capacity (Section 4.2).
MIN_CAPACITY = 4096


@dataclass(frozen=True)
class DesignPoint:
    """One candidate processor with its modelled area."""

    config: WaveScalarConfig
    area_mm2: float

    @property
    def capacity(self) -> int:
        return self.config.total_instruction_capacity

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.config.describe()} = {self.area_mm2:.0f}mm2>"


def enumerate_raw() -> Iterator[WaveScalarConfig]:
    """The full cross product: 31,752 points (paper: "over 21,000")."""
    for c in CLUSTER_CHOICES:
        for d in DOMAIN_CHOICES:
            for p in PE_CHOICES:
                for v in VIRT_CHOICES:
                    for m in MATCHING_CHOICES:
                        for l1 in L1_CHOICES:
                            for l2 in L2_CHOICES:
                                yield WaveScalarConfig(
                                    clusters=c,
                                    domains_per_cluster=d,
                                    pes_per_domain=p,
                                    virtualization=v,
                                    matching_entries=m,
                                    l1_kb=l1,
                                    l2_mb=l2,
                                )


def raw_design_count() -> int:
    return (
        len(CLUSTER_CHOICES)
        * len(DOMAIN_CHOICES)
        * len(PE_CHOICES)
        * len(VIRT_CHOICES)
        * len(MATCHING_CHOICES)
        * len(L1_CHOICES)
        * len(L2_CHOICES)
    )


def is_balanced(config: WaveScalarConfig) -> bool:
    """The paper's structural sanity rules.

    The paper names the first two and applies "a few more like them"
    without listing them; the remaining two below are our documented
    stand-ins (DESIGN.md), chosen to shrink the set the same way.

    * Fewer than 8 PEs per domain -> merge into a single domain.
    * Fewer than 4 domains -> single cluster.
    * Multi-cluster processors use perfect-square grids (1, 4, 16, 64)
      so the mesh is balanced in both dimensions.
    * The L2 may not exceed 4 MB per cluster (a larger cache would
      dwarf the compute it serves).
    """
    return _balanced(config.clusters, config.domains_per_cluster,
                     config.pes_per_domain, config.l2_mb)


def _balanced(clusters: int, domains: int, pes: int, l2_mb: int) -> bool:
    """:func:`is_balanced` on grid values: the rules themselves."""
    if pes < 8 and domains > 1:
        return False
    if domains < 4 and clusters > 1:
        return False
    if clusters > 1:
        root = int(round(clusters ** 0.5))
        if root * root != clusters:
            return False
    return l2_mb <= 4


def matches_ratio(config: WaveScalarConfig, ratio: float) -> bool:
    """Whether M/V equals the chosen virtualization ratio."""
    return _at_ratio(config.virtualization, config.matching_entries, ratio)


def _at_ratio(virtualization: int, matching: int, ratio: float) -> bool:
    return matching == int(virtualization * ratio)


def _admitted(ratio: float | None) -> Iterator[WaveScalarConfig]:
    """The grid points the balance and ratio rules admit, decided on
    grid values before a config exists (384 of 31,752 at ratio 1)."""
    shapes = [(c, d, p, l2)
              for c in CLUSTER_CHOICES for d in DOMAIN_CHOICES
              for p in PE_CHOICES for l2 in L2_CHOICES
              if _balanced(c, d, p, l2)]
    tables = [(v, m) for v in VIRT_CHOICES for m in MATCHING_CHOICES
              if ratio is None or _at_ratio(v, m, ratio)]
    for c, d, p, l2 in shapes:
        for v, m in tables:
            for l1 in L1_CHOICES:
                yield WaveScalarConfig(
                    clusters=c, domains_per_cluster=d, pes_per_domain=p,
                    virtualization=v, matching_entries=m, l1_kb=l1, l2_mb=l2)


def prune(
    configs: Iterable[WaveScalarConfig],
    max_area: float = MAX_DIE_MM2,
    ratio: float | None = 1.0,
    min_capacity: int = MIN_CAPACITY,
    require_clock: bool = True,
) -> list[DesignPoint]:
    """Apply the Section 4.2 funnel; returns surviving design points."""
    result = []
    for config in configs:
        if not is_balanced(config):
            continue
        if ratio is not None and not matches_ratio(config, ratio):
            continue
        if config.total_instruction_capacity < min_capacity:
            continue
        if require_clock and not meets_clock_target(config):
            continue
        area = chip_area(config)
        if area > max_area:
            continue
        result.append(DesignPoint(config=config, area_mm2=area))
    result.sort(key=lambda d: (d.area_mm2, d.config.describe()))
    return result


def viable_designs(ratio: float = 1.0) -> list[DesignPoint]:
    """The final design list: 68 points at ratio 1 (the paper's 41; the
    count depends on the unpublished balance rules -- see DESIGN.md)."""
    return prune(_admitted(ratio), ratio=ratio)


def balanced_designs() -> list[DesignPoint]:
    """The intermediate set after area + balance rules only: 1,534
    points (the paper's 344; see the module docstring)."""
    return prune(_admitted(None), ratio=None, min_capacity=0)
