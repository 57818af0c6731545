"""The WaveScalar area model (paper Table 3).

The paper distils its RTL synthesis results (90 nm TSMC, 20 FO4) into a
closed-form model: per-entry costs for the SRAM-dominated structures
(matching table, instruction store, caches), fixed costs for the other
components, and a utilisation factor covering wiring.  This module
transcribes that model exactly; every constant below is from Table 3.

The area model is what the design-space exploration consumes; the
independent bottom-up estimator in :mod:`repro.area.estimator`
cross-checks these constants against first-principles SRAM/logic area.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import WaveScalarConfig

# ----------------------------------------------------------------------
# Table 3 constants (mm^2, 90 nm)
# ----------------------------------------------------------------------
MATCHING_MM2_PER_ENTRY = 0.004  # M_area
ISTORE_MM2_PER_INSTRUCTION = 0.002  # V_area
PE_OTHER_MM2 = 0.05  # e_area: INPUT/DISPATCH/EXECUTE/OUTPUT logic
PSEUDO_PE_MM2 = 0.1236  # PPE_area (MEM and NET)
STORE_BUFFER_MM2 = 2.464  # SB_area
L1_MM2_PER_KB = 0.363  # L1_area
NETWORK_SWITCH_MM2 = 0.349  # N_area
L2_MM2_PER_MB = 11.78  # L2_area
UTILIZATION = 0.94  # U: cell packing / routing overhead

#: Die-size cap used by the paper's design-space pruning (Section 4.2).
MAX_DIE_MM2 = 400.0

#: FPU area per domain (Table 2: 0.53 mm^2 per domain).  The Table 3
#: model folds this into the domain cost; we keep it explicit so the
#: Table 2 budget reproduction can report it separately.
FPU_MM2_PER_DOMAIN = 0.527


@dataclass(frozen=True)
class AreaBreakdown:
    """Area of one configuration, by component (mm^2)."""

    pe_matching: float
    pe_istore: float
    pe_other: float
    pseudo_pes: float
    fpus: float
    store_buffers: float
    l1: float
    network_switches: float
    l2: float
    wiring_overhead: float

    @property
    def pe_total(self) -> float:
        return self.pe_matching + self.pe_istore + self.pe_other

    @property
    def cluster_logic(self) -> float:
        """Everything inside the clusters, before utilisation."""
        return (
            self.pe_total
            + self.pseudo_pes
            + self.fpus
            + self.store_buffers
            + self.l1
            + self.network_switches
        )

    @property
    def total(self) -> float:
        return self.cluster_logic + self.wiring_overhead + self.l2

    @property
    def sram_fraction(self) -> float:
        """Fraction of cluster logic spent on SRAM structures --
        the paper reports ~80% (Section 4.1)."""
        sram = self.pe_matching + self.pe_istore + self.l1
        return sram / self.cluster_logic if self.cluster_logic else 0.0


def pe_area(config: WaveScalarConfig) -> float:
    """PE_area = M*M_area + V*V_area + e_area."""
    return (
        config.matching_entries * MATCHING_MM2_PER_ENTRY
        + config.virtualization * ISTORE_MM2_PER_INSTRUCTION
        + PE_OTHER_MM2
    )


def domain_area(config: WaveScalarConfig) -> float:
    """D_area = 2*PPE_area + P*PE_area (+ the shared FPU)."""
    return (
        2 * PSEUDO_PE_MM2
        + config.pes_per_domain * pe_area(config)
        + FPU_MM2_PER_DOMAIN
    )


def cluster_area(config: WaveScalarConfig) -> float:
    """C_area = D*D_area + SB_area + L1*L1_area + N_area."""
    return (
        config.domains_per_cluster * domain_area(config)
        + STORE_BUFFER_MM2
        + config.l1_kb * L1_MM2_PER_KB
        + NETWORK_SWITCH_MM2
    )


def chip_area(config: WaveScalarConfig) -> float:
    """WC_area = (C * C_area)/U + L2_area (Table 3's bottom line)."""
    return (
        config.clusters * cluster_area(config) / UTILIZATION
        + config.l2_mb * L2_MM2_PER_MB
    )


def breakdown(config: WaveScalarConfig) -> AreaBreakdown:
    """Full per-component decomposition of :func:`chip_area`."""
    n_pes = config.total_pes
    n_domains = config.clusters * config.domains_per_cluster
    pe_matching = n_pes * config.matching_entries * MATCHING_MM2_PER_ENTRY
    pe_istore = n_pes * config.virtualization * ISTORE_MM2_PER_INSTRUCTION
    pe_other = n_pes * PE_OTHER_MM2
    pseudo = n_domains * 2 * PSEUDO_PE_MM2
    fpus = n_domains * FPU_MM2_PER_DOMAIN
    sbs = config.clusters * STORE_BUFFER_MM2
    l1 = config.clusters * config.l1_kb * L1_MM2_PER_KB
    switches = config.clusters * NETWORK_SWITCH_MM2
    logic = (
        pe_matching + pe_istore + pe_other + pseudo + fpus + sbs + l1
        + switches
    )
    wiring = logic * (1.0 / UTILIZATION - 1.0)
    return AreaBreakdown(
        pe_matching=pe_matching,
        pe_istore=pe_istore,
        pe_other=pe_other,
        pseudo_pes=pseudo,
        fpus=fpus,
        store_buffers=sbs,
        l1=l1,
        network_switches=switches,
        l2=config.l2_mb * L2_MM2_PER_MB,
        wiring_overhead=wiring,
    )
