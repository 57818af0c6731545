"""Fuzzer-driven differential testing.

Six oracles ship with this repo -- the reference interpreter, the
engine, the frozen seed engine it was derived from, the lockstep
scheduler, the static A-rule bound, and the graph linter.  This package generates seeded, reproducible
programs and holds every oracle to agreement on each one; any
disagreement is shrunk to a minimal repro and recorded.  See
DESIGN.md §5j and ``repro fuzz --help``.
"""

from .corpus import CorpusCase, load_corpus, save_case
from .defects import DEFECTS, get_defect
from .differential import (
    PROBE_CONFIGS,
    DiffReport,
    Divergence,
    diff_graph,
    values_equal,
)
from .generator import random_graph, random_recipe
from .harness import (
    CampaignResult,
    diff_recipe,
    divergence_persists,
    run_campaign,
)
from .minimize import ddmin, graph_size, minimize_recipe
from .recipe import BranchSpec, LoopSpec, Recipe, build_graph

__all__ = [
    "BranchSpec",
    "CampaignResult",
    "CorpusCase",
    "DEFECTS",
    "DiffReport",
    "Divergence",
    "LoopSpec",
    "PROBE_CONFIGS",
    "Recipe",
    "build_graph",
    "ddmin",
    "diff_graph",
    "diff_recipe",
    "divergence_persists",
    "get_defect",
    "graph_size",
    "load_corpus",
    "minimize_recipe",
    "random_graph",
    "random_recipe",
    "run_campaign",
    "save_case",
    "values_equal",
]
