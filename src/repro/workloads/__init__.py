"""Workload suite: stand-ins for the paper's fifteen applications."""

from .base import Scale, Suite, Workload, partition, scaled
from .characterize import (
    Profile,
    characterization_table,
    profile_graph,
    profile_workload,
)
from .registry import (
    MEDIA_NAMES,
    SPEC_NAMES,
    SPLASH_NAMES,
    SUITES,
    TENSOR_NAMES,
    WORKLOADS,
    all_names,
    by_suite,
    get,
)

__all__ = [
    "Scale",
    "Profile",
    "characterization_table",
    "profile_graph",
    "profile_workload",
    "Suite",
    "Workload",
    "partition",
    "scaled",
    "MEDIA_NAMES",
    "SPEC_NAMES",
    "SPLASH_NAMES",
    "SUITES",
    "TENSOR_NAMES",
    "WORKLOADS",
    "all_names",
    "by_suite",
    "get",
]
