"""JSONL checkpointing: crash safety, resume, kill-and-resume."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.area.model import chip_area
from repro.core import WaveScalarConfig
from repro.design import DesignPoint
from repro.harness import (
    CellSpec,
    Ledger,
    RunSupervisor,
    design_space_sweep,
    summarize,
    sweep_cells,
)
from repro.workloads import Scale

REPO_ROOT = Path(__file__).resolve().parents[2]

CFG = WaveScalarConfig(clusters=1, l2_mb=1)


def designs_for(*configs):
    return [DesignPoint(config=c, area_mm2=chip_area(c)) for c in configs]


# ----------------------------------------------------------------------
# Ledger mechanics
# ----------------------------------------------------------------------
def test_append_load_round_trip(tmp_path):
    ledger = Ledger(tmp_path / "runs.jsonl")
    ledger.append({"hash": "aaa", "status": "ok", "aipc": 1.5})
    ledger.append({"hash": "bbb", "status": "failed",
                   "failure_class": "TrueDeadlock"})
    records = ledger.load()
    assert set(records) == {"aaa", "bbb"}
    assert records["aaa"]["aipc"] == 1.5
    assert summarize(records) == {"ok": 1, "failed": 1}
    assert len(ledger.load()) == 2


def test_last_record_wins(tmp_path):
    ledger = Ledger(tmp_path / "runs.jsonl")
    ledger.append({"hash": "aaa", "status": "failed"})
    ledger.append({"hash": "aaa", "status": "ok", "aipc": 2.0})
    assert ledger.load()["aaa"]["status"] == "ok"


def test_load_keeps_first_seen_hash_order(tmp_path):
    ledger = Ledger(tmp_path / "runs.jsonl")
    ledger.append({"hash": "aaa", "status": "failed"})
    ledger.append({"hash": "bbb", "status": "ok", "aipc": 1.5})
    ledger.append({"hash": "aaa", "status": "ok", "aipc": 2.0})
    # First-seen hash order, supersession by seq: aaa's retry wins.
    assert [(r["status"], r["aipc"]) for r in ledger.load().values()] \
        == [("ok", 2.0), ("ok", 1.5)]


def test_torn_trailing_line_tolerated(tmp_path):
    """A SIGKILL mid-append leaves a truncated line; load skips it."""
    path = tmp_path / "runs.jsonl"
    ledger = Ledger(path)
    ledger.append({"hash": "aaa", "status": "ok"})
    with path.open("a") as fh:
        fh.write('{"hash": "bbb", "status": "o')  # torn write
    records = ledger.load()
    assert set(records) == {"aaa"}


def test_missing_file_loads_empty(tmp_path):
    ledger = Ledger(tmp_path / "nope.jsonl")
    assert ledger.load() == {}
    assert (ledger.torn_lines, ledger.corrupt_lines) == (0, 0)


def test_append_many_batches_records(tmp_path):
    """One drain batch = one write; records land like N appends."""
    ledger = Ledger(tmp_path / "runs.jsonl")
    ledger.append_many([
        {"hash": f"h{i}", "status": "ok", "aipc": float(i)}
        for i in range(5)
    ])
    ledger.append_many([])  # no-op, must not create/extend the file
    records = ledger.load()
    assert set(records) == {f"h{i}" for i in range(5)}
    assert len(ledger.load()) == 5


def test_load_counts_torn_lines_for_summarize(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = Ledger(path)
    ledger.append({"hash": "aaa", "status": "ok"})
    with path.open("a") as fh:
        fh.write('{"hash": "bbb", "status": "o\n')  # corrupt line
        fh.write('{"hash": "ccc"')  # torn tail
    records = ledger.load()
    assert ledger.torn_lines == 2
    counts = summarize(records, torn_lines=ledger.torn_lines)
    assert counts == {"ok": 1, "torn_lines": 2}
    # Without corruption the key stays absent (back-compat).
    assert summarize(records) == {"ok": 1}


# ----------------------------------------------------------------------
# Sweeps against the ledger
# ----------------------------------------------------------------------
def test_sweep_cells_checkpoints_and_resumes(tmp_path):
    path = tmp_path / "runs.jsonl"
    specs = [
        CellSpec(config=CFG, workload=name, scale="tiny")
        for name in ("mcf", "gzip")
    ]
    supervisor = RunSupervisor(isolation="inline")
    records, report = sweep_cells(
        specs, ledger_path=path, supervisor=supervisor
    )
    assert report.completed == 2 and report.skipped == 0
    assert len(records) == 2

    # Resuming re-simulates nothing.
    _, resumed = sweep_cells(
        specs, ledger_path=path, resume=True, supervisor=supervisor
    )
    assert resumed.completed == 0 and resumed.skipped == 2


def test_failed_cells_are_checkpointed_too(tmp_path):
    path = tmp_path / "runs.jsonl"
    # Starved: 50 cycles, escalated twice to 800, for a ~8k-cycle cell.
    spec = CellSpec(config=CFG, workload="mcf", scale="tiny", max_cycles=50)
    supervisor = RunSupervisor(isolation="inline")
    _, report = sweep_cells(
        [spec], ledger_path=path, supervisor=supervisor
    )
    assert report.failed == 1
    record = Ledger(path).load()[spec.cell_hash()]
    assert record["status"] == "failed"
    assert record["failure_class"] == "CycleBudgetExhausted"
    assert record["attempts"] == 3
    assert record["diagnostics"]["max_cycles"] == 800
    # A known-failing cell is not re-run on resume either.
    _, resumed = sweep_cells(
        [spec], ledger_path=path, resume=True, supervisor=supervisor
    )
    assert resumed.skipped == 1 and resumed.failed == 0


def test_design_space_sweep_scores_failures_zero(tmp_path):
    """A design whose workload fails scores 0 for it, auditable in
    the report rather than invisible."""
    path = tmp_path / "runs.jsonl"
    supervisor = RunSupervisor(isolation="inline")
    points, report = design_space_sweep(
        designs_for(CFG), ("mcf",), scale=Scale.TINY,
        ledger_path=path, supervisor=supervisor, max_cycles=50,
    )
    assert points[0].performance == 0.0
    assert report.failed == 1
    assert report.failures and \
        report.failures[0].failure_class == "CycleBudgetExhausted"
    assert "retried" in report.summary()


# ----------------------------------------------------------------------
# The acceptance scenario: SIGKILL the driver, resume the campaign
# ----------------------------------------------------------------------
DRIVER = """
import sys
from repro.area.model import chip_area
from repro.core import WaveScalarConfig
from repro.design import DesignPoint
from repro.harness import RunSupervisor, design_space_sweep
from repro.workloads import Scale

configs = [
    WaveScalarConfig(clusters=1, l1_kb=8),
    WaveScalarConfig(clusters=1, l1_kb=8, l2_mb=1),
    WaveScalarConfig(clusters=1, l2_mb=1),
]
designs = [DesignPoint(config=c, area_mm2=chip_area(c)) for c in configs]
design_space_sweep(
    designs, ("mcf", "gzip", "ammp"), scale=Scale.TINY,
    ledger_path=sys.argv[1], resume=True,
    supervisor=RunSupervisor(isolation="inline"),
)
"""


def test_kill_and_resume(tmp_path):
    """Kill the sweep driver with SIGKILL mid-campaign; the resumed
    sweep completes without re-simulating finished cells."""
    path = tmp_path / "runs.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    driver = subprocess.Popen(
        [sys.executable, "-c", DRIVER, str(path)],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # Wait for some cells to land in the ledger, then SIGKILL.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if path.exists() and len(path.read_text().splitlines()) >= 2:
                break
            if driver.poll() is not None:
                break
            time.sleep(0.02)
        else:
            pytest.fail("driver produced no ledger records in time")
    finally:
        if driver.poll() is None:
            os.kill(driver.pid, signal.SIGKILL)
        driver.wait()

    survived = Ledger(path).load()
    assert survived, "no checkpointed cells survived the kill"
    for record in survived.values():
        assert record["status"] == "ok"

    # Resume: finished cells are skipped, the campaign completes.
    configs = [
        WaveScalarConfig(clusters=1, l1_kb=8),
        WaveScalarConfig(clusters=1, l1_kb=8, l2_mb=1),
        WaveScalarConfig(clusters=1, l2_mb=1),
    ]
    points, report = design_space_sweep(
        designs_for(*configs), ("mcf", "gzip", "ammp"),
        scale=Scale.TINY, ledger_path=path, resume=True,
        supervisor=RunSupervisor(isolation="inline"),
    )
    assert report.skipped == len(survived)
    assert report.total == 9  # 3 designs x 3 workloads
    assert report.completed == 9 - len(survived)
    assert len(points) == 3
    assert all(p.performance > 0 for p in points)
    # Every cell now has exactly one complete record; nothing was
    # re-simulated (a torn line at the kill point is not a record).
    lines = []
    for line in path.read_text().splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    assert len(lines) == 9
    assert len({record["hash"] for record in lines}) == 9
