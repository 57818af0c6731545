"""WaveScalar processor configuration.

:class:`WaveScalarConfig` captures the seven area-model parameters of
Table 3 plus the fixed microarchitectural constants of Table 1.  The
same object parameterises the area model (:mod:`repro.area`), placement
(:mod:`repro.place`) and the cycle-level simulator (:mod:`repro.sim`),
so one configuration means one processor everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class WaveScalarConfig:
    """One point in the WaveScalar design space.

    The first seven fields are the area-model parameters (paper
    Table 3); the remainder are microarchitectural constants from
    Table 1 and Section 3, exposed so the ablation studies in
    Section 3.2/3.3 can be reproduced.
    """

    # ------------------------------------------------------------------
    # Table 3 design-space parameters
    # ------------------------------------------------------------------
    clusters: int = 1
    domains_per_cluster: int = 4
    pes_per_domain: int = 8
    virtualization: int = 128  # V: instruction-store slots per PE
    matching_entries: int = 128  # M: matching-table rows per PE
    l1_kb: int = 32  # per cluster
    l2_mb: int = 0  # total, 0 = no L2

    # ------------------------------------------------------------------
    # Matching table microarchitecture (Section 3.2)
    # ------------------------------------------------------------------
    matching_associativity: int = 2
    matching_banks: int = 4
    matching_hash_k: int = 4  # k in the tuned hash I*k + (w mod k)
    overflow_penalty: int = 40  # cycles for an evicted token round trip
    istore_miss_penalty: int = 120  # ~3x a matching miss (Section 4.2)

    # ------------------------------------------------------------------
    # Pipeline & pod behaviour (Section 3.2)
    # ------------------------------------------------------------------
    pods_enabled: bool = True  # pairs of PEs snoop bypass networks
    speculative_fire: bool = True  # back-to-back dependent dispatch
    match_to_dispatch_delay: int = 2  # MATCH + scheduling-queue cycles
    output_queue_entries: int = 4

    # ------------------------------------------------------------------
    # Interconnect latencies (Table 1)
    # ------------------------------------------------------------------
    pod_latency: int = 1
    domain_latency: int = 5
    cluster_latency: int = 9
    intercluster_base: int = 9  # + cluster (hop) distance
    mesh_bandwidth: int = 2  # operands per cycle per port
    mesh_queue_entries: int = 8
    net_pe_bandwidth: int = 1  # operands/cycle a NET pseudo-PE injects

    # ------------------------------------------------------------------
    # Memory system (Section 3.3)
    # ------------------------------------------------------------------
    storebuffer_waves: int = 4
    partial_store_queues: int = 2
    psq_entries: int = 4
    storebuffer_latency: int = 2  # pipelined processing (3 stages, 2 busy)
    l1_associativity: int = 4
    line_bytes: int = 128
    l1_hit_latency: int = 3  # 2 SRAM + 1 processing
    l1_ports: int = 4  # accesses per cycle
    l2_base_latency: int = 20  # 20..30 depending on distance
    l2_max_latency: int = 30
    dram_latency: int = 200

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def pes_per_cluster(self) -> int:
        return self.domains_per_cluster * self.pes_per_domain

    @property
    def total_pes(self) -> int:
        return self.clusters * self.pes_per_cluster

    @property
    def total_instruction_capacity(self) -> int:
        """Static instructions the whole processor can hold."""
        return self.total_pes * self.virtualization

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Mesh layout (cols, rows) of the cluster grid, near-square."""
        cols = int(math.ceil(math.sqrt(self.clusters)))
        rows = int(math.ceil(self.clusters / cols))
        return cols, rows

    def cluster_xy(self, cluster: int) -> tuple[int, int]:
        cols, _ = self.grid_shape
        return cluster % cols, cluster // cols

    def cluster_distance(self, a: int, b: int) -> int:
        """Manhattan hop distance between two clusters."""
        ax, ay = self.cluster_xy(a)
        bx, by = self.cluster_xy(b)
        return abs(ax - bx) + abs(ay - by)

    @property
    def l1_lines(self) -> int:
        return (self.l1_kb * 1024) // self.line_bytes

    @property
    def l1_sets(self) -> int:
        return max(1, self.l1_lines // self.l1_associativity)

    @property
    def l2_lines(self) -> int:
        return (self.l2_mb * 1024 * 1024) // self.line_bytes

    @property
    def line_words(self) -> int:
        return self.line_bytes // 8

    def __post_init__(self) -> None:
        if self.clusters < 1:
            raise ValueError("need at least one cluster")
        if not 1 <= self.domains_per_cluster <= 4:
            raise ValueError("domains per cluster must be 1..4 (RTL limit)")
        if not 1 <= self.pes_per_domain <= 8:
            raise ValueError("PEs per domain must be 1..8 (RTL limit)")
        if self.pes_per_domain % 2 and self.pods_enabled \
                and self.pes_per_domain > 1:
            raise ValueError("pods require an even number of PEs per domain")
        if self.virtualization < 1 or self.matching_entries < 1:
            raise ValueError("V and M must be positive")
        if self.matching_associativity < 1:
            raise ValueError("associativity must be positive")
        if self.matching_entries % self.matching_associativity:
            raise ValueError("M must be a multiple of the associativity")
        if self.l1_kb < 1:
            raise ValueError("L1 must be at least 1KB")
        if self.l2_mb < 0:
            raise ValueError("L2 size cannot be negative")

    def scaled(self, clusters: int) -> "WaveScalarConfig":
        """The same tile replicated into a different cluster count
        (the naive-scaling experiment of Section 4.2/Figure 7)."""
        return replace(self, clusters=clusters)

    def describe(self) -> str:
        """Compact one-line identity used in tables and logs."""
        return (
            f"C{self.clusters}xD{self.domains_per_cluster}"
            f"xP{self.pes_per_domain} V{self.virtualization} "
            f"M{self.matching_entries} L1:{self.l1_kb}KB L2:{self.l2_mb}MB"
        )


#: The baseline processor of paper Table 1 / Table 2.
BASELINE = WaveScalarConfig(
    clusters=1,
    domains_per_cluster=4,
    pes_per_domain=8,
    virtualization=128,
    matching_entries=128,
    l1_kb=32,
    l2_mb=0,
)
