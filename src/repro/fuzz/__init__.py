"""Fuzzer-driven differential testing.

Five oracles ship with this repo -- the reference interpreter, the
engine, the engine again with its fixed-point jump stood down, the
static A-rule bound, and the graph linter.  This package generates seeded, reproducible
programs and holds every oracle to agreement on each one; any
disagreement is shrunk to a minimal repro and recorded.  Nothing here
can break an engine on purpose: the tests prove detection by putting a
broken ``Engine`` subclass in place of
``repro.fuzz.differential.Engine`` (the ``broken_engine`` fixture in
``tests/conftest.py``).  See DESIGN.md §5j and ``repro fuzz --help``.
"""

from .corpus import CorpusCase, load_corpus, save_case
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
    "graph_size",
    "load_corpus",
    "minimize_recipe",
    "random_graph",
    "random_recipe",
    "run_campaign",
    "save_case",
    "values_equal",
]
