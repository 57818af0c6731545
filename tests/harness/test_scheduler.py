"""Parallel sweep scheduler: correctness under jobs>1.

The contract: for any ``jobs`` value the sweep produces identical
``ParetoPoint``s and identical ledger verdicts to the serial path --
only wall-clock changes.  These tests run the same campaigns at
``jobs=1`` and ``jobs=4`` and diff everything observable, then cover
the failure semantics unique to the parallel driver: lane stop under
concurrency, pre-validation before dispatch, one process layer (every
cell runs in an isolation child of the driver), and SIGKILL of the
driver mid-campaign (kill-and-resume).
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
    CircuitBreaker,
    Lane,
    Ledger,
    RespawnBackoff,
    RunSupervisor,
    design_space_sweep,
    execute_lanes,
    sweep_cells,
)
from repro.harness import supervisor as supervisor_mod
from repro.harness.supervisor import CellResult
from repro.harness.sweep import SweepReport, _lane_score
from repro.sim.failures import CycleBudgetExhausted
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


def isolated(jobs) -> RunSupervisor:
    """In-process cells where one slot allows it; ``jobs>1`` runs each
    in an isolation child."""
    return RunSupervisor(isolation="inline" if jobs == 1 else "process")


def run_sweep(jobs, ledger_path=None, **kw):
    defaults = dict(scale=Scale.TINY, supervisor=isolated(jobs))
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
    )
    s_points, s_report = design_space_sweep(
        design, ("fft",), ledger_path=tmp_path / "s.jsonl", jobs=1,
        supervisor=isolated(1), **kw
    )
    p_points, p_report = design_space_sweep(
        design, ("fft",), ledger_path=tmp_path / "p.jsonl", jobs=4,
        supervisor=isolated(4), **kw
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

    def lane_winner(records):
        scored = _lane_score(lane, records)
        return scored.winner, scored.failure

    failed = {"status": "failed"}
    assert lane_winner(records(1.0, 3.0, 2.0, 2.5)) == (specs[1], None)
    assert lane_winner(records(1.0, 2.0, None)) == \
        (specs[1], (specs[2], failed))
    assert lane_winner(records(2.0, 2.0))[0] is specs[0]  # first max
    assert lane_winner(records(None)) == (None, (specs[0], failed))
    assert lane_winner({}) == (None, None)


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
        supervisor=isolated(4),
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
        supervisor=isolated(4), jobs=4,
    )
    assert report.completed == 1 and report.skipped == 2
    assert len(Ledger(tmp_path / "runs.jsonl").load()) == 1


def test_parallel_matches_serial_observability(tmp_path):
    """The determinism contract extends to observability: aggregated
    deterministic metric counts from a jobs=4 campaign are
    bit-identical to jobs=1.  Wall-clock series (histograms) are
    exempt by construction."""
    from repro.obs.metrics import aggregate_records

    _, serial_report = run_sweep(1, tmp_path / "serial.jsonl")
    _, par_report = run_sweep(4, tmp_path / "par.jsonl")

    serial_reg = aggregate_records(
        Ledger(tmp_path / "serial.jsonl").load().values()
    )
    par_reg = aggregate_records(
        Ledger(tmp_path / "par.jsonl").load().values()
    )
    serial_counts = serial_reg.counters
    par_counts = par_reg.counters
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


@pytest.mark.parametrize("jobs, isolation", [
    (1, "process"), (2, "process"), (1, "inline"),
])
def test_summary_compile_cache_is_the_records_fold(tmp_path, jobs,
                                                    isolation):
    """The summary's compile-cache line is what ``repro stats`` folds
    from the ledger, whichever process ran each cell -- not the
    driver's own cache, which an isolated campaign's cells never
    touch."""
    from repro.obs.metrics import aggregate_records

    _, report = run_sweep(jobs, tmp_path / "runs.jsonl",
                          supervisor=RunSupervisor(isolation=isolation))
    histograms = aggregate_records(
        Ledger(tmp_path / "runs.jsonl").load().values()).histograms
    want = {kind: int(histograms[f"compile_cache_{kind}"].total)
            for kind in ("hits", "misses", "evictions")}
    assert report.metrics["compile_cache"] == want
    assert want["hits"] + want["misses"] == 9  # one lookup per cell
    assert (f"compile cache: {want['hits']} hit(s) / {want['misses']} "
            f"miss(es) / {want['evictions']} eviction(s)"
            in report.metrics_summary())


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


def scripted_execute_cell(marker):
    """An ``execute_cell`` that scripts a cell's verdict by its tag, in
    the isolation child, without simulating: the failing cell's
    escalated retry fails too, and the crash-once cell ends its child
    the first time it runs (a file is the only memory the children
    share)."""
    def execute_cell(spec: CellSpec) -> dict:
        tag = spec.max_cycles - 1000
        if tag == FAILS or tag > 1000:  # FAILS, or its escalated retry
            raise CycleBudgetExhausted("scripted")
        if tag == CRASHES_ONCE:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass  # second dispatch: the crash was environmental
            else:
                os._exit(13)
        return {"status": "ok", "aipc": tag / 100.0}

    return execute_cell


def scripted_execute_batch(specs: list[CellSpec]) -> list[dict]:
    """A group attempt finishes every cell but the failing and the
    crash-once one, which go back to the serial policy."""
    return [
        {"status": "failed", "failure_class": "CycleBudgetExhausted",
         "failure_detail": "scripted", "diagnostics": None}
        if spec.max_cycles - 1000 in (FAILS, CRASHES_ONCE)
        else {"status": "ok", "aipc": (spec.max_cycles - 1000) / 100.0}
        for spec in specs
    ]


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


def run_scripted(tmp_path, monkeypatch, jobs: int, width: int):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork to inherit the scripted verdicts")
    workdir = tmp_path / f"j{jobs}w{width}"
    workdir.mkdir()
    monkeypatch.setattr(supervisor_mod, "execute_cell",
                        scripted_execute_cell(workdir / "crashed-once"))
    monkeypatch.setattr(supervisor_mod, "execute_batch",
                        scripted_execute_batch)
    resumed = Ledger.record_for(scripted_cell(8), CellResult(
        spec=scripted_cell(8), status="ok",
        outcome={"status": "ok", "aipc": 0.08},
    ))
    report = SweepReport()
    supervisor = RunSupervisor(
        isolation="process", max_retries=1, timeout_s=60,
        backend="batched" if width > 1 else "plain", batch_width=width,
    )
    try:
        records = execute_lanes(
            scripted_lanes(), jobs=jobs, supervisor=supervisor,
            ledger=Ledger(workdir / "runs.jsonl"),
            done={resumed["hash"]: resumed}, report=report,
        )
    finally:
        supervisor.close()
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
        tmp_path, monkeypatch, jobs, width):
    """``jobs`` changes how many dispatches are in flight and ``width``
    how many cells one carries -- never what is recorded or counted."""
    want_records, want_counters, _, _ = run_scripted(
        tmp_path, monkeypatch, 1, 1)
    records, counters, lines, report = run_scripted(
        tmp_path, monkeypatch, jobs, width)
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


def test_serial_lane_protocol_accounting_and_line_order(tmp_path,
                                                        monkeypatch):
    records, counters, lines, report = run_scripted(
        tmp_path, monkeypatch, 1, 1)
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
    exception surfaced in the driver or in an isolation child, with one
    dispatch in flight or two."""
    specs = [
        CellSpec(config=CONFIGS[0], workload="nope", scale="tiny"),
        CellSpec(config=CONFIGS[0], workload="fft", scale="tiny"),
    ]
    pairs = []
    for isolation, jobs in (("inline", 1), ("process", 1),
                            ("process", 2)):
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
    """Watchdog + retry policy hold for every dispatch in flight
    exactly as they do serially: a hung cell's child is killed at its
    deadline and the cell recorded while the other lane completes."""
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


# ----------------------------------------------------------------------
# One process layer: the driver and its isolation children
# ----------------------------------------------------------------------
def test_every_cell_runs_in_an_isolation_child_of_the_driver(
        monkeypatch, tmp_path):
    """At ``jobs=2`` the driver itself waits on two isolation children:
    every cell runs in a direct child of the driver, and no more than
    two such children run cells."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork to inherit the patched execute_cell")
    log = tmp_path / "pids"
    real = supervisor_mod.execute_cell

    def execute_cell(spec):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {os.getppid()}\n")
        return real(spec)

    monkeypatch.setattr(supervisor_mod, "execute_cell", execute_cell)
    specs = [CellSpec(config=config, workload=name, scale="tiny")
             for config in CONFIGS for name in ("mcf", "gzip")]
    _, report = sweep_cells(specs, jobs=2,
                            supervisor=RunSupervisor(isolation="process"))
    assert report.completed == len(specs)
    pairs = {tuple(map(int, line.split()))
             for line in log.read_text().splitlines()}
    assert {parent for _, parent in pairs} == {os.getpid()}
    assert 1 <= len(pairs) <= 2


@pytest.mark.parametrize("jobs", [2, 0, None])
def test_inline_isolation_with_several_jobs_is_refused(jobs):
    """Inline cells run in the driver, one at a time: asking for more
    is an error, not a silently serial campaign."""
    lanes = [Lane(key=(i,), specs=[scripted_cell(i)]) for i in range(3)]
    with pytest.raises(ValueError, match="process isolation"):
        execute_lanes(lanes, jobs=jobs,
                      supervisor=RunSupervisor(isolation="inline"))


@pytest.mark.parametrize("budget", [-0.5, 1.5])
def test_failure_budget_outside_zero_to_one_is_refused(budget):
    lanes = [Lane(key=(0,), specs=[scripted_cell(0)])]
    with pytest.raises(ValueError, match="failure budget"):
        execute_lanes(lanes, failure_budget=budget,
                      supervisor=RunSupervisor(isolation="inline"))


# ----------------------------------------------------------------------
# The recovery primitives: circuit breaker, respawn backoff, budget
# ----------------------------------------------------------------------
def test_circuit_breaker_trips_at_threshold():
    breaker = CircuitBreaker(threshold=3)
    assert not breaker.record_crash("cell")
    assert not breaker.record_crash("cell")
    assert breaker.record_crash("cell")  # third consecutive -> trip
    assert breaker.trips == 1 and breaker.crash_retries == 2
    # The streak was consumed by the trip; the cell starts fresh.
    assert not breaker.record_crash("cell")
    breaker.reset("cell")
    assert not breaker.record_crash("cell")


def test_respawn_backoff_is_seeded_and_bounded():
    a = RespawnBackoff(base=0.05, cap=1.0)
    b = RespawnBackoff(base=0.05, cap=1.0)
    delays = [a.next_delay() for _ in range(8)]
    assert delays == [b.next_delay() for _ in range(8)]
    assert all(0.05 <= d <= 1.0 for d in delays)
    a.reset()
    assert a.next_delay() <= 0.05 * 3  # decorrelated restart


def test_failure_budget_aborts_doomed_campaign(tmp_path):
    """A campaign where every cell fails must abort once the failure
    rate blows the budget, with a partial report -- not grind through
    every remaining cell."""
    specs = [
        CellSpec(config=CONFIGS[2], workload="mcf", scale="tiny",
                 seed=i, max_cycles=10, max_events=10)
        for i in range(8)
    ]
    records, report = sweep_cells(
        specs,
        ledger_path=tmp_path / "doomed.jsonl",
        supervisor=RunSupervisor(isolation="inline", max_retries=0),
        failure_budget=0.25,
    )
    assert report.aborted and "exceeds budget" in report.aborted
    assert report.failed >= 5  # the minimum sample before aborting
    assert len(records) < len(specs)  # later cells were skipped
    assert "ABORTED" in report.summary()


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
    supervisor=RunSupervisor(isolation="process"),
)
"""


def test_parallel_kill_and_resume(tmp_path):
    """SIGKILL a jobs=4 driver (and its isolation children)
    mid-campaign: only in-flight cells are lost, and the resumed jobs=4
    sweep re-simulates exactly those."""
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
            # The children share the driver's session: kill the
            # group so no busy child outlives the test.
            os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()

    survived = Ledger(path).load()
    assert survived, "no checkpointed cells survived the kill"
    for record in survived.values():
        assert record["status"] == "ok"

    points, report = design_space_sweep(
        designs_for(*CONFIGS), NAMES, scale=Scale.TINY,
        ledger_path=path, resume=True, jobs=4, supervisor=isolated(4),
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
