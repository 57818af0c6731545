"""The fuzz campaign driver: seeds in, corpus cases out.

``run_campaign`` walks a seed range; each seed becomes a recipe, a
graph, and a differential report.  Divergent programs are shrunk by
the minimizer (optional) and recorded as :class:`CorpusCase` objects,
written to the corpus directory when one is given.  The whole
pipeline is deterministic: same seed range, same results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .corpus import CorpusCase, save_case
from .differential import diff_graph
from .generator import random_recipe
from .minimize import graph_size, minimize_recipe
from .recipe import Recipe, build_graph


@dataclass
class CampaignResult:
    seeds_run: int = 0
    programs_clean: int = 0
    cases: list = field(default_factory=list)
    #: static-instruction and dynamic-instruction totals, for the
    #: coverage line in reports.
    total_static: int = 0
    total_dynamic: int = 0

    @property
    def clean(self) -> bool:
        return not self.cases

    def to_dict(self) -> dict:
        return {
            "seeds_run": self.seeds_run,
            "programs_clean": self.programs_clean,
            "divergences": len(self.cases),
            "total_static_instructions": self.total_static,
            "total_dynamic_instructions": self.total_dynamic,
            "cases": [case.to_dict() for case in self.cases],
        }


def diff_recipe(recipe: Recipe):
    """Build and differentially execute one recipe."""
    return diff_graph(build_graph(recipe))


def divergence_persists(recipe: Recipe, kind: str) -> bool:
    """The minimizer's interestingness predicate: does shrinking this
    recipe still reproduce a divergence of ``kind``?"""
    report = diff_recipe(recipe)
    return any(d.kind == kind for d in report.divergences)


def run_campaign(
    seeds: int = 100,
    start: int = 0,
    corpus_dir=None,
    minimize: bool = True,
    progress: Optional[Callable[[int, "CampaignResult"], None]] = None,
) -> CampaignResult:
    """Fuzz seeds ``start .. start + seeds - 1``."""
    result = CampaignResult()
    for seed in range(start, start + seeds):
        recipe = random_recipe(seed)
        report = diff_recipe(recipe)
        result.seeds_run += 1
        result.total_static += report.graph_len
        result.total_dynamic += report.dynamic_instructions
        if report.clean:
            result.programs_clean += 1
        else:
            first = report.divergences[0]
            case = CorpusCase(
                seed=seed, kind=first.kind, detail=first.detail,
                config=first.config,
                recipe=recipe.to_dict(), graph_len=report.graph_len,
            )
            if minimize:
                minimized = minimize_recipe(
                    recipe,
                    lambda r: divergence_persists(r, first.kind),
                )
                case.minimized = minimized.to_dict()
                case.minimized_len = graph_size(minimized)
            result.cases.append(case)
            if corpus_dir is not None:
                save_case(corpus_dir, case)
        if progress is not None:
            progress(seed, result)
    return result
