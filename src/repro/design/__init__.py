"""Design-space exploration: enumeration, pruning, Pareto analysis,
matching-table tuning, and the tile-scaling study (Section 4.2)."""

from .export import dump_points
from .pareto import (
    FrontierRow,
    ParetoPoint,
    best_performance_per_area,
    frontier_rows,
    is_dominated,
    pareto_front,
)
from .scaling import ScaledDesign, ScalingStudy, replicate, run_scaling_study
from .sensitivity import (
    DEFAULT_AXES,
    SensitivityAxis,
    SensitivityPoint,
    render as render_sensitivity,
    sweep as sensitivity_sweep,
)
from .space import (
    DesignPoint,
    MIN_CAPACITY,
    balanced_designs,
    enumerate_raw,
    is_balanced,
    matches_ratio,
    prune,
    viable_designs,
)
from .virtualization import (
    INFINITE_MATCHING,
    TuningResult,
    find_k_opt,
    find_u_opt,
    processor_ratio,
    tune_application,
)

__all__ = [
    "FrontierRow",
    "dump_points",
    "ParetoPoint",
    "best_performance_per_area",
    "frontier_rows",
    "is_dominated",
    "pareto_front",
    "ScaledDesign",
    "DEFAULT_AXES",
    "SensitivityAxis",
    "SensitivityPoint",
    "render_sensitivity",
    "sensitivity_sweep",
    "ScalingStudy",
    "replicate",
    "run_scaling_study",
    "DesignPoint",
    "MIN_CAPACITY",
    "balanced_designs",
    "enumerate_raw",
    "is_balanced",
    "matches_ratio",
    "prune",
    "viable_designs",
    "INFINITE_MATCHING",
    "TuningResult",
    "find_k_opt",
    "find_u_opt",
    "processor_ratio",
    "tune_application",
]
