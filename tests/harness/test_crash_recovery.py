"""Crash recovery from real causes.

Each test disturbs a small campaign with a real failure -- a SIGKILL
sent from the test, ledger bytes damaged between passes, an ``fsync``
that fails, a workload that kills its process, a cell that stalls --
recovers with the production machinery only (resume, ``repair`` and
``compact``, the circuit breaker, the watchdog), and
holds the healed ledger to an undisturbed serial run of the same
cells (:mod:`.recovery`).  Nothing in ``repro`` injects faults.
"""

import errno
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.area.model import chip_area
from repro.cli import main
from repro.core import WaveScalarConfig
from repro.design import DesignPoint
from repro.harness import (
    BREAKER_THRESHOLD,
    CellSpec,
    Ledger,
    RunSupervisor,
    design_space_sweep,
)
from repro.harness import ledger as ledger_mod
from repro.workloads import Scale

from .recovery import assert_healed, divergence

REPO_ROOT = Path(__file__).resolve().parents[2]

DESIGNS = [DesignPoint(config=config, area_mm2=chip_area(config))
           for config in (WaveScalarConfig(clusters=1, l2_mb=1),
                          WaveScalarConfig(clusters=2, l2_mb=1))]
NAMES = ("mcf", "fft")
#: The cell the single-cell disturbances pick: the last one, so the
#: cells before it are already on disk when it is disturbed.
VICTIM = ("fft", DESIGNS[1].config)


def is_victim(spec: CellSpec) -> bool:
    return (spec.workload, spec.config) == VICTIM


def campaign(path, names=NAMES, *, jobs=1, isolation="inline",
             timeout_s=60.0):
    """One pass of the test campaign over the ledger at ``path``,
    resuming whatever it already holds."""
    _, report = design_space_sweep(
        DESIGNS, names, Scale.TINY, ledger_path=path, resume=True,
        jobs=jobs, supervisor=RunSupervisor(isolation=isolation,
                                            timeout_s=timeout_s),
    )
    return report


@pytest.fixture(scope="module")
def baseline_ledger(tmp_path_factory):
    path = tmp_path_factory.mktemp("baseline") / "baseline.jsonl"
    campaign(path)
    return path


@pytest.fixture
def baseline(baseline_ledger):
    return Ledger(baseline_ledger).load()


def victim_hash(baseline) -> str:
    (cell,) = [cell for cell, record in baseline.items()
               if is_victim(CellSpec.from_dict(record["spec"]))]
    return cell


# ----------------------------------------------------------------------
# The oracle itself
# ----------------------------------------------------------------------
def test_oracle_catches_lost_extra_and_divergent_cells(baseline):
    assert divergence(baseline, dict(baseline)) == []
    cells = sorted(baseline)
    lost = dict(baseline)
    del lost[cells[0]]
    assert "lost" in divergence(baseline, lost)[0]
    extra = dict(baseline, stray={"status": "ok", "aipc": 1.0})
    assert "unexpected" in divergence(baseline, extra)[0]
    moved = dict(baseline)
    moved[cells[1]] = dict(baseline[cells[1]], aipc=0.0)
    assert "divergent verdict" in divergence(baseline, moved)[0]
    recounted = dict(baseline)
    recounted[cells[2]] = dict(
        baseline[cells[2]],
        metrics=dict(baseline[cells[2]]["metrics"], events=1),
    )
    assert "divergent counters: events" in \
        divergence(baseline, recounted)[0]
    named = {cells[3]: ("poisoned", "PoisonedCell")}
    assert "expected ('poisoned'" in \
        divergence(baseline, dict(baseline), named)[0]


# ----------------------------------------------------------------------
# SIGKILL from the test: the isolation child
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_sigkilled_isolation_child_is_retried_and_heals(
        kill_mid_cell, baseline, tmp_path, jobs):
    """The isolation child dies mid-cell: the supervisor reports a
    ``WorkerCrash``, the circuit breaker sends the cell out again
    instead of recording it, and the retry's record is the clean
    one, ``attempts`` and ``retries`` included."""
    killer = kill_mid_cell(is_victim)
    report = campaign(tmp_path / "runs.jsonl", jobs=jobs,
                      isolation="process")
    assert killer.wait(60) == 0
    sched = report.metrics["scheduler"]
    assert (sched["worker_crash_retries"], sched["breaker_trips"]) == (1, 0)
    assert_healed(baseline, tmp_path / "runs.jsonl")


# ----------------------------------------------------------------------
# A driver killed between ledger batches, then resumed
# ----------------------------------------------------------------------
SWEEP = ("sweep", "--suite", "spec", "--sample", "17", "--scale", "tiny")


def test_sigkilled_sweep_resumes_to_the_baseline(tmp_path, capsys):
    """``repro sweep --ledger`` is SIGKILLed (with its isolation child)
    as soon as its first record is durable; ``repro ledger repair``
    and ``repro sweep --resume`` finish the campaign, re-simulating
    only what the kill lost."""
    assert main([*SWEEP, "--ledger", str(tmp_path / "base.jsonl")]) == 0
    baseline = Ledger(tmp_path / "base.jsonl").load()

    path = tmp_path / "runs.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    driver = subprocess.Popen(
        [sys.executable, "-m", "repro", *SWEEP, "--ledger", str(path)],
        env=env, cwd=REPO_ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while not (path.exists() and b"\n" in path.read_bytes()):
            assert driver.poll() is None, "the sweep ended before a kill"
            assert time.monotonic() < deadline, "no durable record"
            time.sleep(0.005)
    finally:
        if driver.poll() is None:
            os.killpg(driver.pid, signal.SIGKILL)
        driver.wait(30)
    survived = Ledger(path).load()
    assert 0 < len(survived) < len(baseline)

    capsys.readouterr()
    assert main(["ledger", "repair", str(path)]) == 0
    assert main([*SWEEP, "--ledger", str(path), "--resume"]) == 0
    assert f"{len(survived)} resumed" in capsys.readouterr().out
    assert_healed(baseline, path)


# ----------------------------------------------------------------------
# Ledger bytes damaged between passes
# ----------------------------------------------------------------------
def damaged_copy(baseline_ledger, tmp_path, damage) -> Path:
    path = tmp_path / "runs.jsonl"
    shutil.copy(baseline_ledger, path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(damage(lines)))
    return path


def heal(path) -> None:
    """The documented recovery pass: repair quarantines what does not
    verify, resume re-simulates it, ``assert_healed`` compacts."""
    Ledger(path).repair()
    campaign(path)


def test_torn_final_line_is_quarantined_and_resimulated(
        baseline_ledger, baseline, tmp_path):
    """The bytes a driver killed mid-append leaves: the last record cut
    in half, no newline."""
    path = damaged_copy(baseline_ledger, tmp_path, lambda lines: (
        lines[:-1] + [lines[-1][:len(lines[-1]) // 2]]))
    audit = Ledger(path).verify()
    assert (audit.torn, audit.records) == (1, len(baseline) - 1)
    heal(path)
    assert_healed(baseline, path)


def test_bit_flipped_line_is_quarantined_and_resimulated(
        baseline_ledger, baseline, tmp_path):
    """One bit of a record's ``aipc`` rots on disk: the record still
    parses, but fails its checksum."""
    def flip(lines):
        line = lines[1]
        at = line.index(b'"aipc": ') + len(b'"aipc": ')
        lines[1] = line[:at] + bytes([line[at] ^ 0x01]) + line[at + 1:]
        return lines

    path = damaged_copy(baseline_ledger, tmp_path, flip)
    audit = Ledger(path).verify()
    assert (audit.crc_mismatch, audit.records) == (1, len(baseline) - 1)
    heal(path)
    assert (tmp_path / "runs.jsonl.quarantine").exists()
    assert_healed(baseline, path)


def test_duplicated_line_is_collapsed_by_compact(
        baseline_ledger, baseline, tmp_path):
    """A record written twice (an append retried after it had landed):
    one cell, counted once."""
    path = damaged_copy(baseline_ledger, tmp_path,
                        lambda lines: lines[:2] + lines[1:])
    audit = Ledger(path).verify()
    assert audit.clean and audit.superseded == 1
    report = campaign(path)
    assert report.skipped == len(baseline) and report.completed == 0
    assert_healed(baseline, path)


# ----------------------------------------------------------------------
# A disk that fails one fsync
# ----------------------------------------------------------------------
def test_fsync_enospc_once_is_retried_and_heals(
        monkeypatch, baseline, tmp_path):
    """``fsync`` raises ``ENOSPC`` once: the ledger writes the batch
    again, and the duplicate lines collapse."""
    real = os.fsync
    raised = []

    def fsync(fd):
        if not raised:
            raised.append(fd)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(fd)

    monkeypatch.setattr(ledger_mod.os, "fsync", fsync)
    campaign(tmp_path / "runs.jsonl")
    monkeypatch.setattr(ledger_mod.os, "fsync", real)
    assert len(raised) == 1
    audit = Ledger(tmp_path / "runs.jsonl").verify()
    assert audit.clean and audit.superseded == 1
    assert_healed(baseline, tmp_path / "runs.jsonl")


# ----------------------------------------------------------------------
# A cell that kills every child it runs in
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_crashing_workload_trips_the_breaker_to_poisoned(
        crasher, baseline, tmp_path, jobs):
    """Every attempt of a ``crasher`` cell ends its isolation child:
    after ``BREAKER_THRESHOLD`` crashes in a row the cell is recorded
    ``poisoned`` instead of being retried forever, and every other
    cell is the baseline's."""
    report = campaign(tmp_path / "runs.jsonl", names=(*NAMES, crasher),
                      jobs=jobs, isolation="process")
    healed = Ledger(tmp_path / "runs.jsonl").load()
    poisoned = {cell: record for cell, record in healed.items()
                if record["workload"] == crasher}
    assert len(poisoned) == len(DESIGNS)
    for record in poisoned.values():
        assert record["attempts"] == BREAKER_THRESHOLD
        assert "exited 86" in record["failure_detail"]
    sched = report.metrics["scheduler"]
    assert sched["breaker_trips"] == len(DESIGNS)
    assert sched["backoff_s"] > 0  # crashed cells wait before going out again
    assert report.poisoned == len(DESIGNS)
    assert_healed(baseline, tmp_path / "runs.jsonl", expect={
        cell: ("poisoned", "PoisonedCell") for cell in poisoned})


# ----------------------------------------------------------------------
# A cell that stalls, and verdicts that arrive late
# ----------------------------------------------------------------------
def test_stalled_cell_is_killed_by_the_watchdog_and_the_rest_heal(
        hang_cell, baseline, tmp_path):
    """The victim hangs: the watchdog kills its child and records a
    ``WatchdogTimeout`` (not retried: it already had the whole
    allowance), and every other cell is the baseline's."""
    hang_cell(is_victim)
    report = campaign(tmp_path / "runs.jsonl", jobs=2,
                      isolation="process", timeout_s=1.0)
    assert report.failed == 1
    assert_healed(baseline, tmp_path / "runs.jsonl", expect={
        victim_hash(baseline): ("failed", "WatchdogTimeout")})


def test_late_verdicts_change_nothing(hang_cell, baseline, tmp_path):
    """Every cell sleeps 0.3 s before it runs, so at ``jobs=2`` the
    driver waits on two children whose verdicts land long after
    dispatch, in either order: the records are the baseline's."""
    hang_cell(sleep_s=0.3)
    campaign(tmp_path / "runs.jsonl", jobs=2, isolation="process")
    assert_healed(baseline, tmp_path / "runs.jsonl")


# ----------------------------------------------------------------------
# Ledgers written before the injection layer was removed
# ----------------------------------------------------------------------
def test_old_record_with_an_injection_count_loads_resumes_and_aggregates(
        baseline_ledger, baseline, tmp_path):
    """Records sealed with a ``chaos_injected`` count still verify,
    resume and aggregate like any other."""
    path = tmp_path / "runs.jsonl"
    ledger = Ledger(path)
    old = [dict(record, chaos_injected=1) for record in baseline.values()]
    for record in old:
        del record["seq"], record["crc"]
    ledger.append_many(old)
    assert Ledger(path).verify().clean
    report = campaign(path)
    assert report.skipped == len(baseline) and report.completed == 0
    assert_healed(baseline, path)
