"""Golden-stats regression: the hot-path engine changes no result.

The recorded verdicts of ``tests/sim/verdicts.json`` are the oracle:
for every workload in the registry the engine must reproduce the
recorded :class:`~repro.sim.stats.SimStats` bit for bit -- every
counter, latency histogram, message tally, and the AIPC derived from
them -- on the golden config and on a starved one that drives the
eviction, deflection, bank-conflict and budget-exhaustion paths (there
a cell that does not finish must fail with the recorded class,
message and diagnostics).  The recording is a run with no fixed-point
jump (``tests/sim/verdicts.py``); that the engine's inlined matching
probe is :meth:`MatchingTable.insert` is held by the trace replay of
``tests/sim/test_matching.py``.  The sweep harness on top must
likewise be invisible: the same campaign at ``jobs=1`` and ``jobs=4``
(and with the compile cache warm or cold) yields identical ledger
records.
"""

import pytest

from repro.fuzz import differential
from repro.harness import CellSpec, RunSupervisor, sweep_cells
from repro.sim.engine import Engine
from repro.workloads import Scale
from repro.workloads.registry import all_names, get

from . import verdicts
from .verdicts import (
    BUDGET_CELL_EVENTS,
    BUDGET_CONFIG,
    C16_NAMES,
    GOLDEN,
    SWEEP_CELL,
    cell,
    check,
    recorded,
)


@pytest.mark.parametrize("name", all_names())
def test_stats_bit_identical_to_seed_engine(name):
    assert check(f"golden/{name}")["verdict"][0] == "ok"


@pytest.mark.parametrize("name", all_names())
def test_starved_verdict_identical_to_seed_engine(name):
    check(f"starved/200k-cycles/{name}")


@pytest.mark.parametrize("name", C16_NAMES)
def test_sixteen_cluster_stats_identical_to_seed_engine(name):
    status, stats = check(f"c16/{name}")["verdict"]
    assert status == "ok"
    assert stats["messages"]["memory"]["grid"] > 0
    if get(name).multithreaded:  # one thread per cluster
        assert stats["messages"]["operand"]["grid"] > 0


@pytest.mark.parametrize(
    "defect", ["off-by-one", "dropped-output", "sign-flip"])
def test_broken_engine_fails_the_recorded_verdicts(
    defect, broken_engine, monkeypatch
):
    """The recorded verdicts catch a broken OUTPUT stage by
    themselves: art's golden ``SimStats`` hold its outputs, an int
    and a float."""
    broken_engine(defect)
    monkeypatch.setattr(verdicts, "Engine", differential.Engine)
    with pytest.raises(AssertionError, match="golden/art"):
        check("golden/art")


def test_aipc_identical_to_seed_engine():
    stats = Engine(*cell("fft", GOLDEN)).run()
    want = recorded()["golden/fft"]
    assert stats.aipc == want["aipc"]
    assert stats.ipc == want["ipc"]


@pytest.mark.parametrize("stride", [
    pytest.param(97, id="every-97th"),
    pytest.param(7, id="every-7th", marks=pytest.mark.slow),
])
def test_every_event_budget_of_a_finishing_cell_matches_seed_engine(stride):
    finished = Engine(*cell(SWEEP_CELL, BUDGET_CONFIG)).run()
    assert finished.events_processed == BUDGET_CELL_EVENTS
    for max_events in range(1, BUDGET_CELL_EVENTS, stride):
        seen = check(f"event-budget/{max_events}")
        assert seen["verdict"][1] == "EventBudgetExhausted", max_events


def _sweep_records(jobs: int, tmp_path, tag: str) -> dict:
    specs = [
        CellSpec(config=GOLDEN, workload="mcf", scale=Scale.TINY.value),
        CellSpec(config=GOLDEN, workload="gzip", scale=Scale.TINY.value),
        CellSpec(
            config=GOLDEN, workload="fft", scale=Scale.TINY.value,
            threads=4,
        ),
        CellSpec(
            config=GOLDEN, workload="fft", scale=Scale.TINY.value,
            threads=8,
        ),
    ]
    records, report = sweep_cells(
        specs,
        ledger_path=tmp_path / f"ledger-{tag}.jsonl",
        supervisor=RunSupervisor(),
        jobs=jobs,
    )
    assert report.failed == 0
    return records


def _deterministic_view(records: dict) -> dict:
    """Ledger records minus the wall-clock observability fields."""
    view = {}
    for cell_hash, record in records.items():
        metrics = dict(record.get("metrics") or {})
        metrics.pop("wall_s", None)
        metrics.pop("events_per_s", None)
        view[cell_hash] = {
            "status": record["status"],
            "aipc": record["aipc"],
            "ipc": record["ipc"],
            "cycles": record["cycles"],
            "dynamic_instructions": record["dynamic_instructions"],
            "alpha_instructions": record["alpha_instructions"],
            "metrics": metrics,
        }
    return view


def test_sweep_identical_across_jobs(tmp_path):
    serial = _sweep_records(1, tmp_path, "serial")
    parallel = _sweep_records(4, tmp_path, "parallel")
    assert _deterministic_view(serial) == _deterministic_view(parallel)
