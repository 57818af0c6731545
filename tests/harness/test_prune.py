"""Static-bound pruning: frontier identity, ledger outcome, resume.

A fake supervisor returns canned AIPC values (all below the real
static bounds, as soundness guarantees), so these tests exercise the
prune driver's decisions -- descending-bound lane order, the mixed
optimistic aggregate, the fully-measured-comparator rule -- without
paying for simulation.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.dataflow import bound_for_cell
from repro.area.model import chip_area
from repro.design.pareto import pareto_front
from repro.design.space import viable_designs
from repro.harness.ledger import Ledger, summarize
from repro.harness.supervisor import CellResult
from repro.harness.sweep import design_space_sweep
from repro.workloads.base import Scale

from .canned import CannedRunSupervisor

NAMES = ["gzip", "mcf"]


class CannedSupervisor(CannedRunSupervisor):
    """design 0 scores high on every workload; later designs score
    low, so the prune driver can dominate them after one measured
    cell.  Records every spec it was asked to run."""

    def __init__(self):
        super().__init__()
        self.ran = []

    def verdict(self, spec) -> CellResult:
        design_index = DESIGNS_BY_LABEL[spec.config.describe()]
        aipc = 0.2 if design_index == 0 else 0.05
        self.ran.append((spec.workload, design_index))
        return CellResult(
            spec=spec, status="ok", attempts=1, retries=0,
            wall_s=0.001,
            outcome={"status": "ok", "aipc": aipc,
                     "cycles": 1000, "alpha_instructions": 200},
        )


@pytest.fixture(scope="module")
def designs():
    return viable_designs()[:4]


@pytest.fixture(autouse=True)
def label_map(designs):
    global DESIGNS_BY_LABEL
    DESIGNS_BY_LABEL = {
        d.config.describe(): i for i, d in enumerate(designs)
    }


def run_sweep(designs, tmp_path, name, **kw):
    supervisor = CannedSupervisor()
    points, report = design_space_sweep(
        designs, NAMES, scale=Scale.TINY,
        ledger_path=tmp_path / name, supervisor=supervisor, **kw,
    )
    return points, report, supervisor


def test_canned_values_respect_the_bounds(designs):
    """The fixture's premise: canned AIPC <= static bound everywhere
    (as the soundness theorem guarantees for real measurements)."""
    from repro.harness.spec import CellSpec

    for design in designs:
        for name in NAMES:
            bound = bound_for_cell(CellSpec(
                config=design.config, workload=name, scale="tiny",
            ))
            assert bound.aipc_bound > 0.2


def test_pruned_sweep_skips_dominated_cells(designs, tmp_path):
    points, report, supervisor = run_sweep(
        designs, tmp_path, "p.jsonl", prune=True
    )
    # Design 0 fully measured; designs 1..3 measure their highest-
    # bound workload, then the remainder is dominated and pruned.
    assert report.pruned_static == len(designs) - 1
    assert report.completed == len(designs) * len(NAMES) \
        - report.pruned_static
    assert report.total == len(designs) * len(NAMES)
    assert "pruned" in report.summary()
    assert "surrogate" not in report.metrics  # the model never trained
    # Design 0 ran both workloads; each later design ran exactly one.
    ran_by_design = {}
    for workload, design_index in supervisor.ran:
        ran_by_design.setdefault(design_index, []).append(workload)
    assert sorted(ran_by_design[0]) == ["gzip", "mcf"]
    for design_index in range(1, len(designs)):
        assert len(ran_by_design[design_index]) == 1


def test_frontier_is_bit_identical_to_unpruned(designs, tmp_path):
    unpruned, _, _ = run_sweep(designs, tmp_path, "u.jsonl")
    pruned, _, _ = run_sweep(designs, tmp_path, "p.jsonl", prune=True)
    front_u = [(p.label, p.area, p.performance)
               for p in pareto_front(unpruned)]
    front_p = [(p.label, p.area, p.performance)
               for p in pareto_front(pruned)]
    assert front_u == front_p
    # Off-frontier points may differ (mixed aggregate >= true), but
    # never in the direction that could promote them onto the front.
    for pu, pp in zip(unpruned, pruned):
        assert pp.performance >= pu.performance


def test_pruned_ledger_record_shape(designs, tmp_path):
    run_sweep(designs, tmp_path, "p.jsonl", prune=True)
    loaded = Ledger(tmp_path / "p.jsonl").load()
    counts = summarize(loaded)
    assert counts["pruned_static"] == len(designs) - 1
    pruned = [r for r in loaded.values()
              if r["status"] == "pruned_static"]
    for record in pruned:
        assert record["attempts"] == 0
        assert record["retries"] == 0
        assert record["wall_s"] == 0.0
        assert record["aipc_bound"] > 0
        assert record["binding_roof"] in record["components"]
        assert record["spec"]["workload"] == record["workload"]


def test_pruned_sweep_resumes_without_rerunning(designs, tmp_path):
    _, first, _ = run_sweep(designs, tmp_path, "p.jsonl", prune=True)
    points, report, supervisor = run_sweep(
        designs, tmp_path, "p.jsonl", prune=True, resume=True
    )
    assert supervisor.ran == []  # nothing re-simulated
    assert report.completed == 0
    assert report.pruned_static == 0  # prior decisions replayed
    assert report.skipped == first.completed + first.pruned_static
    # The aggregate still sees the stored bounds.
    front_first = [(p.label, p.performance) for p in points]
    assert front_first  # non-degenerate
    loaded = Ledger(tmp_path / "p.jsonl").load()
    assert summarize(loaded)["pruned_static"] == len(designs) - 1


def test_unpruned_sweep_never_prunes(designs, tmp_path):
    _, report, supervisor = run_sweep(designs, tmp_path, "u.jsonl")
    assert report.pruned_static == 0
    assert len(supervisor.ran) == len(designs) * len(NAMES)


def test_unsorted_design_list_keeps_the_frontier_measured(designs, tmp_path):
    """The skip test compares areas, it does not assume the caller
    sorted by them: on a reversed design list the big, strong design
    comes first and must not prune the cheaper ones behind it."""
    backwards = list(reversed(designs))
    areas = {d.config.describe(): rank for rank, d in enumerate(designs)}

    class ByAscendingArea(CannedSupervisor):
        def verdict(self, spec):
            result = super().verdict(spec)
            rank = areas[spec.config.describe()]
            result.outcome["aipc"] = (0.05, 0.06, 0.07, 0.2)[rank]
            return result

    def sweep(name, **kw):
        points, _ = design_space_sweep(
            backwards, NAMES, scale=Scale.TINY,
            ledger_path=tmp_path / name, supervisor=ByAscendingArea(),
            **kw,
        )
        return [(p.label, p.area, p.performance)
                for p in pareto_front(points)]

    exhaustive = sweep("u.jsonl")
    assert [round(perf, 9) for _, _, perf in exhaustive] == \
        [0.05, 0.06, 0.07, 0.2]
    assert sweep("p.jsonl", prune=True) == exhaustive
    on_frontier = {label for label, _, _ in exhaustive}
    for record in Ledger(tmp_path / "p.jsonl").load().values():
        if record["status"] == "pruned_static":
            assert record["config"] not in on_frontier


# ----------------------------------------------------------------------
# Data oracle: the prune decisions of the bench study, recorded at the
# commit before static pruning became the prior-only case of the
# surrogate loop (PR 17).  No bench workload runs ``prune`` alone, so
# this file is what holds its decisions.
# ----------------------------------------------------------------------
ORACLE = Path(__file__).with_name("prune_sweep_records.json")
STUDY_NAMES = ("gzip", "mcf", "twolf", "ammp", "art", "equake")
_RECORD_KEYS = ("status", "config", "workload", "threads", "attempts",
                "retries", "aipc", "failure_class", "aipc_bound",
                "binding_roof")
_COUNTERS = ("completed", "failed", "invalid", "poisoned",
             "pruned_static", "predicted", "retried", "skipped")


class BoundFractionSupervisor(CannedRunSupervisor):
    """No simulation: a cell scores a fixed fraction of its static
    bound (so soundness holds by construction), the fraction growing
    with die area plus a draw from the cell's identity hash; one cell
    in ~16 exhausts its budget instead."""

    def verdict(self, spec) -> CellResult:
        draw = int(spec.identity_hash()[:8], 16) / 2.0 ** 32
        if draw < 0.06:
            return CellResult(
                spec=spec, status="failed", attempts=2, retries=1,
                failure_class="CycleBudgetExhausted",
                failure_detail="canned",
            )
        fraction = min(
            0.95, 0.2 + chip_area(spec.config) / 1000.0 + 0.4 * draw
        )
        aipc = round(bound_for_cell(spec).aipc_bound * fraction, 6)
        return CellResult(
            spec=spec, status="ok", attempts=1, retries=0,
            outcome={"status": "ok", "aipc": aipc, "cycles": 1000,
                     "alpha_instructions": 200},
        )


def prune_study_view(tmp_path) -> dict:
    """Everything ``prune=True`` decides on the bench study, minus
    wall clock and ledger sequencing (the order ``pruned_static``
    lines land in is not part of the contract)."""
    points, report = design_space_sweep(
        viable_designs()[::4], STUDY_NAMES, scale=Scale.TINY,
        ledger_path=tmp_path / "study.jsonl",
        supervisor=BoundFractionSupervisor(), prune=True,
    )
    records = Ledger(tmp_path / "study.jsonl").load()
    return {
        "records": {
            cell: {key: record[key] for key in _RECORD_KEYS
                   if key in record}
            for cell, record in sorted(records.items())
        },
        "points": [[p.label, p.area, p.performance] for p in points],
        "counters": {name: getattr(report, name) for name in _COUNTERS},
    }


def test_prune_decisions_match_the_recorded_study(tmp_path):
    got = json.loads(json.dumps(prune_study_view(tmp_path)))
    want = json.loads(ORACLE.read_text())
    assert got["counters"] == want["counters"]
    assert got["counters"]["pruned_static"] >= 10  # a real study
    assert got["records"] == want["records"]
    assert got["points"] == want["points"]
