"""Area and timing models derived from the paper's RTL synthesis.

* :mod:`repro.area.model` -- the Table 3 closed-form area model.
* :mod:`repro.area.budget` -- the Table 2 measured cluster budget.
* :mod:`repro.area.estimator` -- first-principles cross-check.
* :mod:`repro.area.timing` -- the 20 FO4 clock model.
"""

from .budget import (
    budget_rows,
    cluster_total_mm2,
    domain_total_mm2,
    format_budget_table,
    pe_total_mm2,
    sram_fraction,
)
from .estimator import estimate_constants
from .floorplan import Floorplan
from .model import (
    MAX_DIE_MM2,
    UTILIZATION,
    AreaBreakdown,
    breakdown,
    chip_area,
    cluster_area,
    domain_area,
    pe_area,
)
from .timing import (
    FO4_PS,
    TARGET_CYCLE_FO4,
    TimingReport,
    cycle_time_fo4,
    meets_clock_target,
    timing_report,
)

__all__ = [
    "budget_rows",
    "cluster_total_mm2",
    "domain_total_mm2",
    "format_budget_table",
    "pe_total_mm2",
    "sram_fraction",
    "Floorplan",
    "estimate_constants",
    "MAX_DIE_MM2",
    "UTILIZATION",
    "AreaBreakdown",
    "breakdown",
    "chip_area",
    "cluster_area",
    "domain_area",
    "pe_area",
    "FO4_PS",
    "TARGET_CYCLE_FO4",
    "TimingReport",
    "cycle_time_fo4",
    "meets_clock_target",
    "timing_report",
]
