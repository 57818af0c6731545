"""Static placement-quality metrics.

These score a placement *before* simulation by classifying every static
dataflow edge by the interconnect level it would traverse.  The
simulator measures the dynamic equivalent (Figure 8); the static metric
is used by placement tests and by the placement-ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import WaveScalarConfig
from ..isa.graph import DataflowGraph
from .placement import Placement

LEVELS = ("pod", "domain", "cluster", "grid")


@dataclass(frozen=True)
class EdgeLocality:
    """Static edge counts by interconnect level."""

    pod: int
    domain: int
    cluster: int
    grid: int

    @property
    def total(self) -> int:
        return self.pod + self.domain + self.cluster + self.grid

    def fraction(self, level: str) -> float:
        if self.total == 0:
            return 0.0
        return getattr(self, level) / self.total

    def within_cluster_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return (self.pod + self.domain + self.cluster) / self.total


def classify_edge(
    pe_a: int, pe_b: int, config: WaveScalarConfig
) -> str:
    """Interconnect level a message from ``pe_a`` to ``pe_b`` uses."""
    if pe_a // 2 == pe_b // 2:
        return "pod"
    if pe_a // config.pes_per_domain == pe_b // config.pes_per_domain:
        return "domain"
    if pe_a // config.pes_per_cluster == pe_b // config.pes_per_cluster:
        return "cluster"
    return "grid"


def edge_locality(
    graph: DataflowGraph, placement: Placement, config: WaveScalarConfig
) -> EdgeLocality:
    """Classify every static dataflow edge by interconnect level."""
    counts = {level: 0 for level in LEVELS}
    for src, dest in graph.edges():
        level = classify_edge(
            placement.pe_of[src], placement.pe_of[dest.inst], config
        )
        counts[level] += 1
    return EdgeLocality(**counts)
