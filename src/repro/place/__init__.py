"""Instruction placement: binding static instructions to PEs.

Implements the paper's locality-seeking placement (depth-first snake
within a thread's home cluster) and thread isolation across clusters,
plus static quality metrics.
"""

from .metrics import (
    EdgeLocality,
    classify_edge,
    edge_locality,
)
from .anneal import AnnealResult, anneal_place, placement_cost
from .placement import Placement
from .policies import POLICIES, place_with_policy
from .snake import chunk_size_for, dfs_order, place
from .threads import assign_threads_to_clusters

__all__ = [
    "EdgeLocality",
    "classify_edge",
    "edge_locality",
    "Placement",
    "AnnealResult",
    "anneal_place",
    "placement_cost",
    "POLICIES",
    "place_with_policy",
    "chunk_size_for",
    "dfs_order",
    "place",
    "assign_threads_to_clusters",
]
