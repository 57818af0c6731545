"""Seeded chaos: every injection point fires and recovery is proven.

Each test arms a small set of :data:`repro.harness.chaos.POINTS` at
``rate=1.0`` (so firing needs no seed scanning), runs a tiny campaign
through :func:`run_chaos_campaign`, and asserts both that the fault
actually fired and that every :class:`ChaosInvariants` check passed --
i.e. the healed ledger is bit-identical to the undisturbed baseline.

Process-isolation tests (worker kill / stall / poison) fork real
children and are the slow end of this file; the ledger-fault tests run
inline and are tier-1 smoke material.
"""

import json

import pytest

from repro.area.model import chip_area
from repro.core import WaveScalarConfig
from repro.design import DesignPoint
from repro.harness import (
    BREAKER_THRESHOLD,
    CellSpec,
    ChaosDriverCrash,
    ChaosInvariants,
    ChaosPlan,
    CircuitBreaker,
    Ledger,
    POINTS,
    RespawnBackoff,
    RunSupervisor,
    run_chaos_campaign,
    sweep_cells,
)
from repro.harness.chaos import plan_for_seed
from repro.obs.metrics import CHAOS_COUNTERS
from repro.workloads import Scale

CFG_A = WaveScalarConfig(clusters=1, l2_mb=1)
CFG_B = WaveScalarConfig(clusters=2, l2_mb=1)
DESIGNS = [DesignPoint(config=c, area_mm2=chip_area(c))
           for c in (CFG_A, CFG_B)]
NAMES = ("mcf", "fft")


def plan(points, seed=0, **overrides):
    overrides.setdefault("rate", 1.0)
    if "poison" in points:
        overrides.setdefault("poison_rate", 1.0)
    return plan_for_seed(seed, points=tuple(points), **overrides)


def campaign(points, tmp_path, *, designs=DESIGNS, names=NAMES,
             isolation="inline", jobs=2, **kwargs):
    chaos_plan = kwargs.pop("plan", None) or plan(points, **{
        k: kwargs.pop(k) for k in ("seed", "rate", "poison_rate",
                                   "stall_s", "crash_batch")
        if k in kwargs
    })
    return run_chaos_campaign(
        designs, names, plan=chaos_plan, workdir=tmp_path,
        scale=Scale.TINY, jobs=jobs, isolation=isolation, **kwargs,
    )


def fired(report):
    return {event["point"] for event in report.injections}


def assert_all_held(report):
    assert report.invariants, "campaign produced no invariant results"
    bad = [r.render() for r in report.invariants if not r.ok]
    assert not bad, "invariants violated:\n" + "\n".join(bad) \
        + "\n" + report.render()


# ----------------------------------------------------------------------
# Plan / controller unit behavior
# ----------------------------------------------------------------------
def test_plan_selection_is_deterministic_and_seed_sensitive():
    a = ChaosPlan(seed=7, rate=0.5)
    b = ChaosPlan(seed=7, rate=0.5)
    keys = [f"cell{i}" for i in range(64)]
    picks = [(p, k) for p in POINTS for k in keys if a.selected(p, k)]
    assert picks == [(p, k) for p in POINTS for k in keys
                     if b.selected(p, k)]
    c = ChaosPlan(seed=8, rate=0.5)
    assert picks != [(p, k) for p in POINTS for k in keys
                     if c.selected(p, k)]


def test_plan_rejects_unknown_points():
    with pytest.raises(ValueError, match="unknown chaos points"):
        ChaosPlan(points=("worker_kill", "cosmic_ray"))


def test_disarmed_point_never_selects():
    armed = ChaosPlan(points=("worker_kill",), rate=1.0)
    assert armed.selected("worker_kill", "x")
    assert not armed.selected("torn_line", "x")


def test_sabotage_precedence_and_retryability():
    spec = CellSpec(config=CFG_A, workload="mcf", scale="tiny")
    everything = ChaosPlan(points=POINTS, rate=1.0, poison_rate=1.0)
    poison = everything.sabotage_for(spec, attempt=1)
    assert poison is not None and poison.point == "poison"
    assert poison.kill and not poison.retryable
    # Poison fires on EVERY attempt (it must defeat the retry loop).
    assert everything.sabotage_for(spec, attempt=3).point == "poison"

    kills = ChaosPlan(points=("worker_kill", "worker_stall"), rate=1.0)
    first = kills.sabotage_for(spec, attempt=1)
    assert first.point == "worker_kill" and first.retryable
    # Kill/stall only sabotage the first attempt: the retry succeeds.
    assert kills.sabotage_for(spec, attempt=2) is None

    stalls = ChaosPlan(points=("worker_stall",), rate=1.0, stall_s=9.0)
    stall = stalls.sabotage_for(spec, attempt=1)
    assert stall.point == "worker_stall" and stall.stall_s == 9.0
    assert not stall.kill


def test_controller_fires_each_fault_once():
    controller = ChaosPlan(points=("scheduler_kill",), rate=1.0) \
        .controller()
    assert controller.kill_worker("cell1")
    assert not controller.kill_worker("cell1")  # one-shot
    assert controller.kill_worker("cell2")
    assert controller.registry.counters["chaos_scheduler_kill"] == 2
    assert controller.registry.counters["chaos_injections_total"] == 2
    assert "2 injection(s)" in controller.summary()


def test_every_point_has_a_counter():
    """Registry-sync: the point catalogue and the metrics catalogue
    cannot drift apart silently."""
    for point in POINTS:
        assert f"chaos_{point}" in CHAOS_COUNTERS


# ----------------------------------------------------------------------
# Ledger mangling hooks (no campaign needed)
# ----------------------------------------------------------------------
def line_for(cell):
    record = {"hash": cell, "status": "ok"}
    return record, json.dumps(record) + "\n"


def test_mangle_dup_line_writes_twice():
    controller = ChaosPlan(points=("dup_line",), rate=1.0).controller()
    lines = controller.mangle_lines([line_for("aaa")])
    assert len(lines) == 2 and lines[0] == lines[1]


def test_mangle_corrupt_line_keeps_newline():
    controller = ChaosPlan(points=("corrupt_line",), rate=1.0) \
        .controller()
    record, line = line_for("aaa")
    (mangled,) = controller.mangle_lines([(record, line)])
    assert mangled.endswith("\n") and "#chaos#" in mangled
    assert mangled != line


def test_mangle_torn_line_truncates_and_kills_driver():
    controller = ChaosPlan(points=("torn_line",), rate=1.0).controller()
    lines = controller.mangle_lines([line_for("aaa"), line_for("bbb")])
    # The torn victim moves to the end, truncated, no newline -- the
    # byte pattern of a driver killed mid-write.
    assert not lines[-1].endswith("\n")
    assert lines[0].endswith("\n")
    with pytest.raises(ChaosDriverCrash):
        controller.fsync_gate()
    controller.fsync_gate()  # the "restarted driver" fsyncs fine


def test_fsync_gate_raises_enospc_once():
    controller = ChaosPlan(points=("fsync_error",), rate=1.0) \
        .controller()
    with pytest.raises(OSError):
        controller.fsync_gate()
    controller.fsync_gate()  # retry path: second fsync succeeds
    assert controller.registry.counters["chaos_fsync_error"] == 1


# ----------------------------------------------------------------------
# Scheduler resilience primitives
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
    a = RespawnBackoff(seed=3, base=0.05, cap=1.0)
    b = RespawnBackoff(seed=3, base=0.05, cap=1.0)
    delays = [a.next_delay() for _ in range(8)]
    assert delays == [b.next_delay() for _ in range(8)]
    assert all(0.05 <= d <= 1.0 for d in delays)
    a.reset()
    assert a.next_delay() <= 0.05 * 3  # decorrelated restart


# ----------------------------------------------------------------------
# Invariant oracle: it must actually catch violations
# ----------------------------------------------------------------------
def synthetic(cell, status="ok", aipc=1.0):
    return {"hash": cell, "status": status, "aipc": aipc, "retries": 0}


def test_invariants_catch_lost_extra_and_divergent_cells():
    oracle = ChaosInvariants(ChaosPlan(points=()))
    baseline = {"a": synthetic("a"), "b": synthetic("b")}

    lost = {r.name: r for r in oracle.check(
        baseline, {"a": synthetic("a")}, expect_poison=False)}
    assert not lost["no_cell_lost"].ok
    # An aborted campaign legitimately leaves cells unfinished.
    aborted = {r.name: r for r in oracle.check(
        baseline, {"a": synthetic("a")}, aborted="failure budget",
        expect_poison=False)}
    assert aborted["no_cell_lost"].ok

    extra = {r.name: r for r in oracle.check(
        baseline, dict(baseline, c=synthetic("c")),
        expect_poison=False)}
    assert not extra["no_extra_cells"].ok

    divergent = {r.name: r for r in oracle.check(
        baseline, {"a": synthetic("a"), "b": synthetic("b", aipc=2.0)},
        expect_poison=False)}
    assert not divergent["verdicts_match"].ok

    clean = oracle.check(baseline, dict(baseline), expect_poison=False)
    assert all(r.ok for r in clean)


def test_invariants_reject_untargeted_poison():
    oracle = ChaosInvariants(ChaosPlan(points=(), poison_rate=0.0))
    baseline = {"a": synthetic("a")}
    healed = {"a": dict(synthetic("a", status="poisoned"),
                        failure_class="PoisonedCell")}
    results = {r.name: r for r in oracle.check(baseline, healed,
                                               expect_poison=False)}
    # Poisoned in the ledger but the plan never targeted it: violation.
    assert not results["poisoned_terminal_and_injected"].ok


# ----------------------------------------------------------------------
# End-to-end recovery, point by point
# ----------------------------------------------------------------------
def test_chaos_smoke_ledger_faults_recover(tmp_path):
    """Tier-1 smoke: corrupt + duplicated lines and one fsync failure,
    all healed to a bit-identical ledger.  Inline and serial -- the
    cheapest full pass through the chaos machinery."""
    report = campaign(("corrupt_line", "dup_line", "fsync_error"),
                      tmp_path, jobs=1)
    assert fired(report) >= {"corrupt_line", "dup_line"}
    assert report.repairs  # corrupt lines forced a repair pass
    assert_all_held(report)


def test_armed_but_idle_plan_changes_nothing(tmp_path):
    """A controller with every point disarmed runs each gate's
    selection logic and must never fire: no injection, and the
    campaign's ledger and points are the undisturbed baseline's."""
    report = campaign((), tmp_path, rate=0.0)
    assert report.injections == []
    assert_all_held(report)


#: The crash tests below run once with the driver executing cells
#: itself and once with a worker pool: both are the same driver, and
#: recovery must not depend on where a dispatch ran.
EVERY_JOBS = (1, 2)


def test_torn_line_and_driver_crash_resume(tmp_path):
    """A torn ledger write (driver dies mid-append) plus a seeded
    driver crash between batches; resume completes the campaign."""
    for jobs in EVERY_JOBS:
        report = campaign(("torn_line", "driver_crash"),
                          tmp_path / f"jobs{jobs}", jobs=jobs,
                          crash_batch=1)
        assert {"torn_line", "driver_crash"} <= fired(report)
        assert report.passes >= 2  # at least one death, one resume
        assert_all_held(report)


def test_scheduler_kill_respawns_worker(tmp_path):
    """SIGKILL a scheduler worker right after dispatch: the driver
    reaps it, respawns with backoff, and re-runs the cell."""
    report = campaign(("scheduler_kill",), tmp_path,
                      isolation="process", timeout_s=60.0)
    assert fired(report) == {"scheduler_kill"}
    assert_all_held(report)


def test_worker_kill_is_retried_without_burning_budget(tmp_path):
    """SIGKILL the supervisor's child on attempt 1: the injected
    failure is retried and MUST NOT count against ``retries`` -- the
    healed records stay verdict-identical to the baseline."""
    for jobs in EVERY_JOBS:
        workdir = tmp_path / f"jobs{jobs}"
        report = campaign(("worker_kill",), workdir, jobs=jobs,
                          isolation="process", timeout_s=60.0)
        assert fired(report) == {"worker_kill"}
        assert_all_held(report)
        healed = Ledger(workdir / "chaos.jsonl").load()
        injected = [r for r in healed.values()
                    if r.get("chaos_injected")]
        assert injected and all(r["retries"] == 0 for r in injected)


def test_worker_stall_trips_watchdog_then_recovers(tmp_path):
    """The child sleeps past the watchdog; the supervisor kills it,
    classifies the timeout as injected, and the retry succeeds."""
    report = campaign(("worker_stall",), tmp_path, isolation="process",
                      designs=DESIGNS[:1], names=("mcf",),
                      stall_s=3.0, timeout_s=1.0)
    assert fired(report) == {"worker_stall"}
    assert_all_held(report)


def test_poison_trips_breaker_to_terminal_verdict(tmp_path):
    """A cell whose child dies on EVERY attempt: the circuit breaker
    must trip and record a terminal ``poisoned`` verdict instead of
    retrying forever."""
    for jobs in EVERY_JOBS:
        workdir = tmp_path / f"jobs{jobs}"
        report = campaign(("poison",), workdir, jobs=jobs,
                          isolation="process", designs=DESIGNS[:1],
                          timeout_s=60.0)
        assert fired(report) == {"poison"}
        assert_all_held(report)
        healed = Ledger(workdir / "chaos.jsonl").load()
        assert len(healed) == len(NAMES)  # one lane per workload
        for record in healed.values():
            assert record["status"] == "poisoned"
            assert record["failure_class"] == "PoisonedCell"
            assert record["attempts"] == BREAKER_THRESHOLD
        sched = report.sweep_report.metrics["scheduler"]
        assert sched["mode"] == ("serial" if jobs == 1 else "parallel")
        assert sched["breaker_trips"] == len(NAMES)


def test_result_delay_changes_nothing(tmp_path):
    """Late verdict delivery must be invisible: same records, same
    aggregation."""
    report = campaign(("result_delay",), tmp_path, isolation="process",
                      timeout_s=60.0)
    assert fired(report) == {"result_delay"}
    assert_all_held(report)


def test_full_catalogue_campaign(tmp_path):
    """Every injection point armed at once, process isolation -- the
    CI configuration.  Seed 3 was verified to select every point at
    these rates over this 4-cell campaign."""
    chaos_plan = plan_for_seed(3, rate=0.5, poison_rate=0.3,
                               stall_s=3.0)
    report = run_chaos_campaign(
        DESIGNS, NAMES, plan=chaos_plan, workdir=tmp_path,
        scale=Scale.TINY, jobs=2, isolation="process", timeout_s=1.5,
    )
    assert len(fired(report)) >= 5  # a real storm, not a drizzle
    assert_all_held(report)


# ----------------------------------------------------------------------
# Failure budget
# ----------------------------------------------------------------------
def test_failure_budget_aborts_doomed_campaign(tmp_path):
    """A campaign where every cell fails must abort once the failure
    rate blows the budget, with a partial report -- not grind through
    every remaining cell."""
    specs = [
        CellSpec(config=CFG_A, workload="mcf", scale="tiny",
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
