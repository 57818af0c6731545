"""The RTL cluster area budget (paper Table 2).

Table 2 reports measured post-synthesis areas for the baseline cluster
(C=1, D=4, P=8, V=128, M=128, 32 KB L1).  Those measurements are the
calibration source for the Table 3 closed-form model; this module
reproduces the table itself, including the percentage columns, so the
Table 2 benchmark can print it and tests can check internal
consistency (sums, percentages, the "71% of cluster is PEs" and "~80%
SRAM" claims of Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass


#: Measured component areas for one PE (mm^2, Table 2).
PE_COMPONENTS_MM2 = {
    "INPUT": 0.01,
    "MATCH": 0.58,
    "DISPATCH": 0.01,
    "EXECUTE": 0.02,
    "OUTPUT": 0.02,
    "instruction store": 0.31,
}

#: Measured non-PE domain components (mm^2 per domain, Table 2).
DOMAIN_COMPONENTS_MM2 = {
    "MemPE": 0.13,
    "NetPE": 0.13,
    "FPU": 0.53,
}

#: Measured non-domain cluster components (mm^2 per cluster, Table 2).
CLUSTER_COMPONENTS_MM2 = {
    "network switch": 0.37,
    "store buffer": 2.62,
    "data cache": 6.18,
}


@dataclass(frozen=True)
class BudgetRow:
    """One row of the Table 2 reproduction."""

    component: str
    area_pe: float | None
    area_domain: float | None
    area_cluster: float
    pct_pe: float | None
    pct_domain: float | None
    pct_cluster: float


def pe_total_mm2() -> float:
    return sum(PE_COMPONENTS_MM2.values())


def domain_total_mm2() -> float:
    return 8 * pe_total_mm2() + sum(DOMAIN_COMPONENTS_MM2.values())


def cluster_total_mm2() -> float:
    return 4 * domain_total_mm2() + sum(CLUSTER_COMPONENTS_MM2.values())


def sram_fraction() -> float:
    """Share of the cluster budget in SRAM structures (matching tables,
    instruction stores, data cache); Section 4.1 reports ~80%."""
    cluster = cluster_total_mm2()
    sram = 4 * 8 * (
        PE_COMPONENTS_MM2["MATCH"] + PE_COMPONENTS_MM2["instruction store"]
    ) + CLUSTER_COMPONENTS_MM2["data cache"]
    return sram / cluster


def budget_rows() -> list[BudgetRow]:
    """The full Table 2, recomputed from the per-component areas."""
    pe_total = pe_total_mm2()
    domain_total = domain_total_mm2()
    cluster_total = cluster_total_mm2()
    rows: list[BudgetRow] = []

    for name, area in PE_COMPONENTS_MM2.items():
        rows.append(
            BudgetRow(
                component=name,
                area_pe=area,
                area_domain=area * 8,
                area_cluster=area * 32,
                pct_pe=area / pe_total,
                pct_domain=area * 8 / domain_total,
                pct_cluster=area * 32 / cluster_total,
            )
        )
    rows.append(
        BudgetRow(
            component="PE total",
            area_pe=pe_total,
            area_domain=pe_total * 8,
            area_cluster=pe_total * 32,
            pct_pe=1.0,
            pct_domain=pe_total * 8 / domain_total,
            pct_cluster=pe_total * 32 / cluster_total,
        )
    )
    for name, area in DOMAIN_COMPONENTS_MM2.items():
        rows.append(
            BudgetRow(
                component=name,
                area_pe=None,
                area_domain=area,
                area_cluster=area * 4,
                pct_pe=None,
                pct_domain=area / domain_total,
                pct_cluster=area * 4 / cluster_total,
            )
        )
    rows.append(
        BudgetRow(
            component="domain total",
            area_pe=None,
            area_domain=domain_total,
            area_cluster=domain_total * 4,
            pct_pe=None,
            pct_domain=1.0,
            pct_cluster=domain_total * 4 / cluster_total,
        )
    )
    for name, area in CLUSTER_COMPONENTS_MM2.items():
        rows.append(
            BudgetRow(
                component=name,
                area_pe=None,
                area_domain=None,
                area_cluster=area,
                pct_pe=None,
                pct_domain=None,
                pct_cluster=area / cluster_total,
            )
        )
    rows.append(
        BudgetRow(
            component="cluster total",
            area_pe=None,
            area_domain=None,
            area_cluster=cluster_total,
            pct_pe=None,
            pct_domain=None,
            pct_cluster=1.0,
        )
    )
    return rows


def format_budget_table() -> str:
    """Render the reproduction of Table 2 as aligned text."""
    lines = [
        f"{'component':<20}{'PE mm2':>9}{'domain mm2':>12}"
        f"{'cluster mm2':>13}{'% PE':>8}{'% domain':>10}{'% cluster':>11}"
    ]

    def fmt(x: float | None, pct: bool = False) -> str:
        if x is None:
            return ""
        return f"{x * 100:.1f}%" if pct else f"{x:.2f}"

    for row in budget_rows():
        lines.append(
            f"{row.component:<20}"
            f"{fmt(row.area_pe):>9}"
            f"{fmt(row.area_domain):>12}"
            f"{fmt(row.area_cluster):>13}"
            f"{fmt(row.pct_pe, True):>8}"
            f"{fmt(row.pct_domain, True):>10}"
            f"{fmt(row.pct_cluster, True):>11}"
        )
    return "\n".join(lines)
