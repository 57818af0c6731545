"""Parallel sweep scheduler: correctness under jobs>1.

The contract: for any ``jobs`` value the sweep produces identical
``ParetoPoint``s and identical ledger verdicts to the serial path --
only wall-clock changes.  These tests run the same campaigns at
``jobs=1`` and ``jobs=4`` and diff everything observable, then cover
the failure semantics unique to the parallel driver: lane stop under
concurrency, pre-validation before dispatch, dead-worker reaping, and
SIGKILL of the driver mid-campaign (kill-and-resume).
"""

import json
import multiprocessing
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
    Lane,
    Ledger,
    RunSupervisor,
    design_space_sweep,
    execute_lanes,
    sweep_cells,
)
from repro.harness import scheduler as scheduler_mod
from repro.harness.supervisor import CellResult
from repro.harness.sweep import SweepReport, lane_winner
from repro.workloads import Scale

REPO_ROOT = Path(__file__).resolve().parents[2]

CONFIGS = [
    WaveScalarConfig(clusters=1, l1_kb=8),
    WaveScalarConfig(clusters=1, l1_kb=8, l2_mb=1),
    WaveScalarConfig(clusters=1, l2_mb=1),
]
NAMES = ("mcf", "gzip", "ammp")


def designs_for(*configs):
    return [DesignPoint(config=c, area_mm2=chip_area(c)) for c in configs]


def verdicts(path) -> dict[str, tuple]:
    """hash -> (status, aipc, failure_class) for every ledger record."""
    return {
        h: (r["status"], r.get("aipc"), r.get("failure_class"))
        for h, r in Ledger(path).load().items()
    }


def stripped(record: dict) -> dict:
    """A record minus what legitimately differs between runs: wall
    clock, ledger sequencing, the requested-backend annotation."""
    out = {k: v for k, v in record.items()
           if k not in ("ts", "seq", "crc", "wall_s", "backend")}
    out["metrics"] = {
        k: v for k, v in record.get("metrics", {}).items()
        if k not in ("wall_s", "events_per_s")
        and not k.startswith("compile_cache_")
    }
    return out


def run_sweep(jobs, ledger_path=None, **kw):
    defaults = dict(
        scale=Scale.TINY, supervisor=RunSupervisor(isolation="inline"),
    )
    defaults.update(kw)
    return design_space_sweep(
        designs_for(*CONFIGS), NAMES, ledger_path=ledger_path,
        jobs=jobs, **defaults,
    )


# ----------------------------------------------------------------------
# jobs=4 == jobs=1, observably
# ----------------------------------------------------------------------
def test_parallel_matches_serial(tmp_path):
    serial_points, serial_report = run_sweep(1, tmp_path / "serial.jsonl")
    par_points, par_report = run_sweep(4, tmp_path / "par.jsonl")

    assert par_points == serial_points
    assert verdicts(tmp_path / "par.jsonl") == \
        verdicts(tmp_path / "serial.jsonl")
    for attr in ("completed", "failed", "invalid", "retried", "skipped"):
        assert getattr(par_report, attr) == getattr(serial_report, attr)
    assert par_report.failures == serial_report.failures


def test_parallel_matches_serial_with_failures(tmp_path):
    """Budget-starved cells fail identically under concurrency, and
    the failure list comes out in canonical (serial) order."""
    kw = dict(max_cycles=50, prevalidate=False)
    serial_points, serial_report = run_sweep(
        1, tmp_path / "serial.jsonl", **kw
    )
    par_points, par_report = run_sweep(4, tmp_path / "par.jsonl", **kw)

    assert par_points == serial_points
    assert all(p.performance == 0.0 for p in par_points)
    assert par_report.failures == serial_report.failures
    assert par_report.failed == serial_report.failed == 9
    assert verdicts(tmp_path / "par.jsonl") == \
        verdicts(tmp_path / "serial.jsonl")


def test_parallel_threaded_lane_stops_on_failure(tmp_path):
    """Thread escalation within a lane stays sequential: after a
    failed thread count, higher counts are never simulated."""
    design = designs_for(WaveScalarConfig(clusters=1, l2_mb=1))
    kw = dict(
        scale=Scale.TINY, threaded=True, candidates=(1, 2, 4),
        max_cycles=50, prevalidate=False,
        supervisor=RunSupervisor(isolation="inline"),
    )
    s_points, s_report = design_space_sweep(
        design, ("fft",), ledger_path=tmp_path / "s.jsonl", jobs=1, **kw
    )
    p_points, p_report = design_space_sweep(
        design, ("fft",), ledger_path=tmp_path / "p.jsonl", jobs=4, **kw
    )
    assert p_points == s_points
    par = Ledger(tmp_path / "p.jsonl").load()
    ser = Ledger(tmp_path / "s.jsonl").load()
    assert set(par) == set(ser)
    # The lane stopped at threads=1: exactly one cell per path.
    assert len(par) == 1
    (record,) = par.values()
    assert record["threads"] == 1 and record["status"] == "failed"


def test_lane_winner_is_best_ok_cell_before_first_failure():
    specs = [
        CellSpec(config=CONFIGS[0], workload="radix", scale="tiny",
                 threads=t)
        for t in (1, 2, 4, 8)
    ]
    lane = Lane(key=(0, "radix"), specs=specs)

    def records(*outcomes):
        return {
            spec.cell_hash():
                {"status": "ok", "aipc": outcome} if outcome is not None
                else {"status": "failed"}
            for spec, outcome in zip(specs, outcomes)
        }

    failed = {"status": "failed"}
    assert lane_winner(lane, records(1.0, 3.0, 2.0, 2.5)) == \
        (specs[1], None)
    assert lane_winner(lane, records(1.0, 2.0, None)) == \
        (specs[1], (specs[2], failed))
    assert lane_winner(lane, records(2.0, 2.0))[0] is specs[0]  # first max
    assert lane_winner(lane, records(None)) == (None, (specs[0], failed))
    assert lane_winner(lane, {}) == (None, None)


def test_parallel_resume_skips_finished_cells(tmp_path):
    path = tmp_path / "runs.jsonl"
    _, first = run_sweep(4, path)
    assert first.completed == 9
    points, resumed = run_sweep(4, path, resume=True)
    assert resumed.completed == 0 and resumed.skipped == 9
    assert all(p.performance > 0 for p in points)


def test_parallel_prevalidation_never_dispatches(tmp_path):
    """Statically doomed configs are rejected driver-side: no worker
    ever simulates them, even at jobs=4."""
    doomed = WaveScalarConfig(matching_entries=256)  # breaks 20 FO4
    points, report = design_space_sweep(
        designs_for(doomed, *CONFIGS[:1]), ("mcf", "gzip"),
        scale=Scale.TINY, ledger_path=tmp_path / "runs.jsonl", jobs=4,
        supervisor=RunSupervisor(isolation="inline"),
    )
    assert report.invalid == 2 and report.completed == 2
    records = Ledger(tmp_path / "runs.jsonl").load()
    invalid = [r for r in records.values() if r["status"] == "invalid"]
    assert len(invalid) == 2
    assert all(r["attempts"] == 0 for r in invalid)
    assert points[0].performance == 0.0 and points[1].performance > 0


def test_duplicate_cells_deduplicated_across_lanes(tmp_path):
    """Two lanes carrying the same cell share one simulation: the
    second lane parks on the in-flight duplicate, then resumes with
    the shared record (counted as skipped, like the serial path)."""
    spec = CellSpec(config=CONFIGS[0], workload="mcf", scale="tiny")
    records, report = sweep_cells(
        [spec, spec, spec], ledger_path=tmp_path / "runs.jsonl",
        supervisor=RunSupervisor(isolation="inline"), jobs=4,
    )
    assert report.completed == 1 and report.skipped == 2
    assert len(Ledger(tmp_path / "runs.jsonl").load()) == 1


def test_parallel_matches_serial_observability(tmp_path):
    """The determinism contract extends to observability: aggregated
    deterministic metric counts from a jobs=4 campaign are
    bit-identical to jobs=1.  Wall-clock series (histograms) are
    exempt by construction."""
    from repro.obs.metrics import aggregate_records, deterministic_counters

    _, serial_report = run_sweep(1, tmp_path / "serial.jsonl")
    _, par_report = run_sweep(4, tmp_path / "par.jsonl")

    serial_reg = aggregate_records(
        Ledger(tmp_path / "serial.jsonl").load().values()
    )
    par_reg = aggregate_records(
        Ledger(tmp_path / "par.jsonl").load().values()
    )
    serial_counts = deterministic_counters(serial_reg)
    par_counts = deterministic_counters(par_reg)
    assert par_counts == serial_counts
    # The simulation counters actually accumulated something.
    for key in ("events", "sim_cycles", "dispatches", "messages"):
        assert serial_counts[key] > 0, key

    # Every record carries a metrics block with the full cell series.
    for record in Ledger(tmp_path / "par.jsonl").load().values():
        metrics = record["metrics"]
        for key in ("wall_s", "events", "events_per_s", "sim_cycles",
                    "dispatches", "messages"):
            assert key in metrics, key

    # Scheduler/sweep observability blocks exist on both reports and
    # describe their own execution mode.
    assert serial_report.metrics["scheduler"]["mode"] == "serial"
    assert par_report.metrics["scheduler"]["mode"] == "parallel"
    assert par_report.metrics["scheduler"]["workers"] == 4
    assert par_report.metrics["scheduler"]["dispatched"] == 9
    assert 0.0 < par_report.metrics["scheduler"]["utilization"] <= 1.0
    for report in (serial_report, par_report):
        sweep_block = report.metrics["sweep"]
        assert sweep_block["cells"] == 9
        assert sweep_block["cells_per_s"] > 0
        assert report.metrics_summary()  # renders non-empty


# ----------------------------------------------------------------------
# One driver: the lane protocol at every (jobs, width)
# ----------------------------------------------------------------------
DOOMED = WaveScalarConfig(matching_entries=256)  # breaks 20 FO4
FAILS, CRASHES_ONCE = 3, 10


def scripted_cell(tag: int, config=CONFIGS[0]) -> CellSpec:
    """Distinct cells (the budget is part of the hash) that all share
    one lockstep group key."""
    return CellSpec(config=config, workload="mcf", scale="tiny",
                    max_cycles=1000 + tag)


class ScriptedSupervisor:
    """No simulation: a cell's verdict is scripted by its tag.  Forks
    into the pool's workers like the real one; the crash-once cell
    keeps its state in a file, the only memory they share."""

    chaos = None

    def __init__(self, width: int, marker) -> None:
        self.backend = "batched" if width > 1 else "plain"
        self.batch_width = width
        self.marker = str(marker)

    def run(self, spec: CellSpec) -> CellResult:
        tag = spec.max_cycles - 1000
        if tag == FAILS:
            return CellResult(
                spec=spec, status="failed", attempts=2, retries=1,
                failure_class="CycleBudgetExhausted",
                failure_detail="scripted",
            )
        if tag == CRASHES_ONCE:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass  # second dispatch: the crash was environmental
            else:
                return CellResult(
                    spec=spec, status="failed",
                    failure_class="WorkerCrash",
                    failure_detail="scripted",
                )
        return CellResult(
            spec=spec, status="ok",
            outcome={"status": "ok", "aipc": tag / 100.0},
        )

    def run_batch(self, specs):
        return [self.run(spec) for spec in specs]


def scripted_lanes() -> list[Lane]:
    return [
        # stopped by a failure: tag 4 must never run
        Lane(key=(0,), specs=[scripted_cell(t) for t in (1, 2, 3, 4)]),
        # the same cell in two lanes
        Lane(key=(1,), specs=[scripted_cell(5)]),
        Lane(key=(2,), specs=[scripted_cell(5), scripted_cell(6)]),
        # a pre-validation reject retires its lane
        Lane(key=(3,), specs=[scripted_cell(7, DOOMED),
                              scripted_cell(7)]),
        # a resumed record, then a fresh cell
        Lane(key=(4,), specs=[scripted_cell(8), scripted_cell(9)]),
        # a WorkerCrash verdict that succeeds on its second dispatch
        Lane(key=(5,), specs=[scripted_cell(CRASHES_ONCE)]),
    ]


def run_scripted(tmp_path, jobs: int, width: int):
    workdir = tmp_path / f"j{jobs}w{width}"
    workdir.mkdir()
    resumed = Ledger.record_for(scripted_cell(8), CellResult(
        spec=scripted_cell(8), status="ok",
        outcome={"status": "ok", "aipc": 0.08},
    ))
    report = SweepReport()
    records = execute_lanes(
        scripted_lanes(), jobs=jobs,
        supervisor=ScriptedSupervisor(width, workdir / "crashed-once"),
        ledger=Ledger(workdir / "runs.jsonl"),
        done={resumed["hash"]: resumed}, report=report, poll_s=0.05,
    )
    records = {cell: stripped(r) for cell, r in records.items()}
    counters = {
        name: getattr(report, name)
        for name in ("completed", "failed", "invalid", "poisoned",
                     "retried", "skipped")
    }
    lines = [json.loads(line)
             for line in (workdir / "runs.jsonl").read_text().splitlines()]
    return records, counters, lines, report


@pytest.mark.parametrize("jobs,width", [(1, 4), (3, 1), (3, 4)])
def test_lane_protocol_identical_for_every_jobs_and_width(
        tmp_path, jobs, width):
    """``jobs`` changes where a dispatch runs and ``width`` how many
    cells it carries -- never what is recorded or counted."""
    want_records, want_counters, _, _ = run_scripted(tmp_path, 1, 1)
    records, counters, lines, report = run_scripted(tmp_path, jobs, width)
    assert records == want_records
    assert counters == want_counters
    # One line per cell that ran: the crash verdict never landed.
    assert sorted(line["hash"] for line in lines) == \
        sorted(set(records) - {scripted_cell(8).cell_hash()})
    sched = report.metrics["scheduler"]
    assert sched["mode"] == ("serial" if jobs == 1 else "parallel")
    assert sched["worker_crash_retries"] == 1
    assert sched["breaker_trips"] == 0
    assert (sched["batch_groups"] > 0) == (width > 1)


def test_serial_lane_protocol_accounting_and_line_order(tmp_path):
    records, counters, lines, report = run_scripted(tmp_path, 1, 1)
    assert counters == {
        "completed": 6, "failed": 1, "invalid": 1, "poisoned": 0,
        "retried": 1,
        "skipped": 2,  # the resumed record and the duplicate cell
    }
    assert scripted_cell(4).cell_hash() not in records
    assert scripted_cell(7).cell_hash() not in records
    crashed = records[scripted_cell(CRASHES_ONCE).cell_hash()]
    assert crashed["status"] == "ok"
    # jobs=1 is lane-major: a continuing lane goes to the front of the
    # ready queue, so lane 0 finishes before lane 1 starts.
    tags = [
        "invalid" if line["status"] == "invalid"
        else line["spec"]["max_cycles"] - 1000
        for line in lines
    ]
    assert tags == [1, 2, 3, 5, 6, "invalid", 9, 10]
    assert report.metrics["scheduler"]["dispatched"] == 8  # 7 + retry


@pytest.mark.slow
def test_real_cells_identical_for_every_jobs_and_width(tmp_path):
    """The same matrix with the real supervisor forking real cells
    (some starved into budget failures): records differ only in wall
    clock and the requested-backend annotation."""
    def run(jobs: int, width: int):
        path = tmp_path / f"j{jobs}w{width}.jsonl"
        points, report = run_sweep(
            jobs, path, max_cycles=5_000, prevalidate=False,
            supervisor=RunSupervisor(
                isolation="process", max_retries=1, timeout_s=120,
                backend="batched" if width > 1 else "plain",
                batch_width=width,
            ),
        )
        records = {cell: stripped(r)
                   for cell, r in Ledger(path).load().items()}
        return points, records, (report.completed, report.failed,
                                 report.retried, report.failures)

    want = run(1, 1)
    assert want[2][0] > 0 and want[2][1] > 0  # both outcomes present
    for jobs, width in ((1, 4), (3, 1), (3, 4)):
        assert run(jobs, width) == want, (jobs, width)


def test_raising_cell_is_a_failed_record_at_any_jobs_and_isolation():
    """A cell that raises (unknown workload: KeyError) ends in a named
    outcome and the sweep moves on -- the same record pair whether the
    exception surfaced in the driver, a pool worker or a forked
    child."""
    specs = [
        CellSpec(config=CONFIGS[0], workload="nope", scale="tiny"),
        CellSpec(config=CONFIGS[0], workload="fft", scale="tiny"),
    ]
    pairs = []
    for isolation in ("inline", "process"):
        for jobs in (1, 2):
            records, report = sweep_cells(
                specs, jobs=jobs, supervisor=RunSupervisor(
                    isolation=isolation, max_retries=0, timeout_s=60,
                ),
            )
            assert (report.failed, report.completed) == (1, 1)
            pairs.append([
                stripped(records[spec.cell_hash()]) for spec in specs
            ])
    raised, ran = pairs[0]
    assert raised["status"] == "failed"
    assert raised["failure_class"] == "KeyError"
    assert ran["status"] == "ok"
    assert all(pair == pairs[0] for pair in pairs[1:])


# ----------------------------------------------------------------------
# Failure semantics under concurrency
# ----------------------------------------------------------------------
def test_supervisor_policy_runs_inside_workers(tmp_path, hang_cell):
    """Watchdog + retry policy execute per-lane inside the worker
    exactly as they do serially: a hung cell is killed and recorded
    while other lanes complete."""
    specs = [
        CellSpec(config=CONFIGS[0], workload="mcf", scale="tiny"),
        CellSpec(config=CONFIGS[0], workload="gzip", scale="tiny"),
    ]
    hang_cell(lambda spec: spec.workload == "mcf")
    records, report = sweep_cells(
        specs, ledger_path=tmp_path / "runs.jsonl",
        supervisor=RunSupervisor(isolation="process", timeout_s=1.0),
        jobs=2,
    )
    assert report.completed == 1 and report.failed == 1
    hung = records[specs[0].cell_hash()]
    assert hung["status"] == "failed"
    assert hung["failure_class"] == "WatchdogTimeout"


def test_dead_worker_is_reaped_and_replaced(monkeypatch, tmp_path):
    """A worker that dies without reporting (OOM-kill stand-in) is
    retried through the circuit breaker -- crash verdicts never reach
    the ledger -- and when every replacement dies too, the cell is
    quarantined as terminal ``poisoned`` instead of burning retries
    forever.  The pool refills and the campaign still terminates."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork to inherit the monkeypatched worker")

    def dying_worker(worker_id, inbox, results, supervisor):
        inbox.get()
        os._exit(13)

    monkeypatch.setattr(scheduler_mod, "_worker_main", dying_worker)
    lanes = [
        Lane(key=(i,), specs=[
            CellSpec(config=CONFIGS[i], workload="mcf", scale="tiny")
        ])
        for i in range(2)
    ]
    ledger = Ledger(tmp_path / "runs.jsonl")
    report = SweepReport()
    records = execute_lanes(
        lanes, jobs=2, supervisor=RunSupervisor(isolation="inline"),
        ledger=ledger, report=report, mp_context="fork", poll_s=0.05,
    )
    assert report.failed == 0  # crashes are retried, not recorded
    assert report.poisoned == 2
    assert all(
        r["status"] == "poisoned"
        and r["failure_class"] == "PoisonedCell"
        and "exit code 13" in r["failure_detail"]
        for r in records.values()
    )
    sched = report.metrics["scheduler"]
    # threshold crashes per cell: threshold-1 retries + 1 trip each.
    assert sched["breaker_trips"] == 2
    assert sched["worker_crash_retries"] == \
        2 * (scheduler_mod.BREAKER_THRESHOLD - 1)
    assert sched["worker_respawns"] >= 2
    assert sched["backoff_s"] > 0
    assert len(ledger.load()) == 2


# ----------------------------------------------------------------------
# Kill-and-resume, parallel edition: SIGKILL the whole driver group
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
    ledger_path=sys.argv[1], resume=True, jobs=4,
    supervisor=RunSupervisor(isolation="inline"),
)
"""


def test_parallel_kill_and_resume(tmp_path):
    """SIGKILL a jobs=4 driver (and its workers) mid-campaign: only
    in-flight cells are lost, and the resumed jobs=4 sweep
    re-simulates exactly those."""
    path = tmp_path / "runs.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    driver = subprocess.Popen(
        [sys.executable, "-c", DRIVER, str(path)],
        env=env, cwd=REPO_ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
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
            # The workers share the driver's session: kill the group
            # so no orphaned worker outlives the test.
            os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()

    survived = Ledger(path).load()
    assert survived, "no checkpointed cells survived the kill"
    for record in survived.values():
        assert record["status"] == "ok"

    points, report = design_space_sweep(
        designs_for(*CONFIGS), NAMES, scale=Scale.TINY,
        ledger_path=path, resume=True, jobs=4,
        supervisor=RunSupervisor(isolation="inline"),
    )
    # At most the in-flight cells were lost; only those re-simulate.
    assert report.skipped == len(survived)
    assert report.total == 9
    assert report.completed == 9 - len(survived)
    assert len(points) == 3
    assert all(p.performance > 0 for p in points)
    # Every cell has exactly one complete record (a torn line at the
    # kill point is not a record and was re-simulated).
    lines = []
    for line in path.read_text().splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    assert len(lines) == 9
    assert len({record["hash"] for record in lines}) == 9
