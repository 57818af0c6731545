"""The divergence corpus: minimal repro cases on disk.

Every divergence the campaign finds is written as one JSON document
-- seed, divergence kind and detail, the original recipe, and the
minimized recipe -- so it can be replayed byte-for-byte later:
checked into ``tests/fuzz/corpus/`` as a permanent regression, or
uploaded from CI as an artifact for triage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .recipe import Recipe, build_graph

FORMAT_VERSION = 1


@dataclass
class CorpusCase:
    """One reproducible divergence."""

    seed: int
    kind: str
    detail: str
    config: str = ""
    recipe: dict = field(default_factory=dict)
    minimized: Optional[dict] = None
    graph_len: int = 0
    minimized_len: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "seed": self.seed,
            "kind": self.kind,
            "detail": self.detail,
            "config": self.config,
            "recipe": self.recipe,
            "minimized": self.minimized,
            "graph_len": self.graph_len,
            "minimized_len": self.minimized_len,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CorpusCase":
        return cls(
            seed=doc["seed"], kind=doc["kind"],
            detail=doc.get("detail", ""), config=doc.get("config", ""),
            recipe=doc.get("recipe", {}),
            minimized=doc.get("minimized"),
            graph_len=doc.get("graph_len", 0),
            minimized_len=doc.get("minimized_len"),
        )

    def best_recipe(self) -> Recipe:
        """The smallest recorded repro (minimized when present)."""
        return Recipe.from_dict(self.minimized or self.recipe)

    def replay(self):
        """Re-run the differential harness on the stored repro."""
        from .differential import diff_graph

        return diff_graph(build_graph(self.best_recipe()))


def case_filename(case: CorpusCase) -> str:
    return f"fuzz_seed{case.seed}_{case.kind}.json"


def save_case(directory, case: CorpusCase) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / case_filename(case)
    path.write_text(
        json.dumps(case.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_corpus(directory) -> list:
    """Every case under ``directory``, sorted by filename (missing
    directory is an empty corpus, not an error)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    cases = []
    for path in sorted(directory.glob("*.json")):
        cases.append(CorpusCase.from_dict(
            json.loads(path.read_text(encoding="utf-8"))
        ))
    return cases
