"""Shared infrastructure for the experiment benchmarks.

Each ``benchmarks/test_*.py`` regenerates one table or figure of the
paper (see DESIGN.md's experiment index).  Regenerated artifacts are
written to ``benchmarks/results/*.txt`` and echoed through pytest's
terminal reporter, so ``pytest benchmarks/ --benchmark-only`` leaves a
readable record of every reproduced number.

Environment knobs:

* ``REPRO_BENCH_SCALE`` -- ``tiny`` (default) / ``small`` / ``medium``:
  workload problem size.
* ``REPRO_BENCH_FULL=1`` -- evaluate every viable design instead of
  the documented subsample in the Pareto sweeps.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.workloads import Scale

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> Scale:
    name = os.environ.get("REPRO_BENCH_SCALE", "tiny").upper()
    return Scale[name]


def full_sweep() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record(results_dir):
    """record(name, text): persist one regenerated artifact."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")

    return _record


@pytest.fixture(scope="session")
def scale() -> Scale:
    return bench_scale()


@pytest.fixture(scope="session")
def campaign(tmp_path_factory) -> dict:
    """What every design-space study of the session passes to
    ``evaluate_design_space`` / ``scaling_study``: one worker per core
    and one ledger, so Figures 6 and 7 and Table 5 simulate the
    Splash2 cells they share once.

    The ledger is new every session: a cell hash covers the spec and
    not the simulator, so a ledger kept across sessions would hide
    exactly the drift these artifacts exist to show.
    """
    ledger = tmp_path_factory.mktemp("study") / "cells.jsonl"
    return {"ledger_path": ledger, "resume": True, "jobs": None}
