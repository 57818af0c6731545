"""One isolation child per supervisor: what ends a child, what does
not, who owns it, and that a record does not depend on what the child
ran before.

The policy tests (classification, retries, watchdog) live in
``test_supervisor.py`` and ``test_crash_recovery.py`` and hold for any way of
starting children; these cover the lifetime of the child itself.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core import WaveScalarConfig
from repro.design import viable_designs
from repro.harness import (
    CellSpec,
    Lane,
    Ledger,
    RunSupervisor,
    design_space_sweep,
    execute_lanes,
    sweep_cells,
)
from repro.harness import supervisor as supervisor_mod
from repro.harness.spec import SWEEP_MAX_EVENTS
from repro.harness.sweep import build_lanes
from repro.workloads import Scale

from .test_scheduler import stripped  # minus wall clock, seq, cache counters

CFG = WaveScalarConfig(clusters=1, l2_mb=1)
HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="needs the fork start method"
)


def make_spec(**kwargs) -> CellSpec:
    defaults = dict(config=CFG, workload="mcf", scale="tiny")
    defaults.update(kwargs)
    return CellSpec(**defaults)


@pytest.fixture
def supervisor():
    sup = RunSupervisor(isolation="process", timeout_s=60)
    yield sup
    sup.close()


def child_of(sup):
    """The idle isolation child's process handle."""
    process, _ = sup._child
    return process


def gone(pid: int) -> bool:
    """No such process any more (an unreaped zombie counts as gone:
    whoever inherits an orphan reaps it in its own time)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return not os.path.isdir("/proc")  # raced its exit, or no /proc


def wait_gone(pid: int, within_s: float) -> bool:
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        if gone(pid):
            return True
        time.sleep(0.02)
    return gone(pid)


# ----------------------------------------------------------------------
# What ends a child, and what does not
# ----------------------------------------------------------------------
def test_cells_share_one_child_until_close(supervisor):
    assert supervisor._child is None  # started lazily
    assert supervisor.run(make_spec()).ok
    first = child_of(supervisor)
    assert supervisor.run(make_spec(workload="gzip")).ok
    assert child_of(supervisor) is first
    supervisor.close()
    assert supervisor._child is None
    assert first.exitcode == 0  # hung up on and joined, not killed
    # close() is not the end of the supervisor, only of that child.
    assert supervisor.run(make_spec()).ok
    assert child_of(supervisor).pid != first.pid


@pytest.mark.parametrize("reaped", [False, True])
def test_idle_death_is_not_a_cell_failure(supervisor, reaped):
    """A child killed *between* two cells is replaced silently: the
    next cell never started in it, so it is no verdict on that cell."""
    assert supervisor.run(make_spec()).ok
    idle = child_of(supervisor)
    idle.kill()
    # Dead for certain before the next dispatch (its end of the pipe
    # closes on the way): still a zombie, or already reaped.
    os.waitid(os.P_PID, idle.pid, os.WEXITED | os.WNOWAIT)
    if reaped:
        idle.join(10)
        assert idle.exitcode == -signal.SIGKILL
    result = supervisor.run(make_spec(workload="gzip"))
    assert result.ok
    assert (result.attempts, result.retries) == (1, 0)
    assert child_of(supervisor).pid != idle.pid


@needs_fork
def test_death_mid_cell_is_a_crash_and_the_next_cell_gets_a_fresh_child(
        monkeypatch):
    def die(spec):
        os._exit(17)

    sup = RunSupervisor(isolation="process", timeout_s=60,
                        mp_context="fork")
    try:
        with monkeypatch.context() as patch:
            patch.setattr(supervisor_mod, "execute_cell", die)
            crashed = sup.run(make_spec())
        assert crashed.failure_class == "WorkerCrash"
        assert "17" in crashed.failure_detail
        assert sup._child is None  # reaped, not kept
        after = sup.run(make_spec())
        assert after.ok and after.attempts == 1
    finally:
        sup.close()


def test_a_batch_group_goes_down_the_same_child(supervisor):
    """A batch group is one more job for the supervisor's one child:
    the single cell after it is served by the same process."""
    group = [make_spec(), make_spec(config=WaveScalarConfig(clusters=2))]
    assert all(r.ok for r in supervisor.run_batch(group))
    first = child_of(supervisor)
    assert supervisor.run(make_spec(workload="gzip")).ok
    assert child_of(supervisor) is first


@needs_fork
def test_death_mid_group_replays_its_cells_in_a_fresh_child(monkeypatch):
    """A child that exits in the middle of a group leaves no dead
    child behind: every cell replays under the plain policy, uncharged
    for the lost attempt, in a child started for the purpose."""
    def die(specs):
        os._exit(17)

    group = [make_spec(), make_spec(config=WaveScalarConfig(clusters=2)),
             make_spec(max_cycles=50)]
    plain = [RunSupervisor(isolation="inline").run(s) for s in group]
    sup = RunSupervisor(isolation="process", timeout_s=60,
                        mp_context="fork", backend="batched",
                        batch_width=len(group))
    try:
        with monkeypatch.context() as patch:
            # Patched before the child forks, so the child inherits it.
            patch.setattr(supervisor_mod, "execute_batch", die)
            assert sup.run(make_spec()).ok
            doomed = child_of(sup)
            results = sup.run_batch(group)
        assert doomed.exitcode == 17
        assert child_of(sup).pid != doomed.pid
        for got, want in zip(results, plain):
            assert got.backend == "batched"
            assert (got.status, got.attempts, got.retries,
                    got.failure_class, got.failure_detail) \
                == (want.status, want.attempts, want.retries,
                    want.failure_class, want.failure_detail)
            assert stripped(got.outcome) == stripped(want.outcome)
        assert [r.status for r in results] == ["ok", "ok", "failed"]
    finally:
        sup.close()


def test_watchdog_kill_is_followed_by_a_fresh_child(hang_cell):
    chosen = make_spec(seed=1)
    hang_cell(lambda spec: spec == chosen)
    sup = RunSupervisor(isolation="process", timeout_s=1.0)
    try:
        assert sup.run(make_spec()).ok
        before = child_of(sup)
        hung = sup.run(chosen)
        assert hung.failure_class == "WatchdogTimeout"
        assert before.exitcode == -signal.SIGKILL
        assert sup.run(make_spec()).ok
        assert child_of(sup).pid != before.pid
    finally:
        sup.close()


# ----------------------------------------------------------------------
# No orphans, no shared children
# ----------------------------------------------------------------------
def _doomed_driver(report, busy: int = 0) -> None:
    """Keep one idle child, then ``busy`` more that hang in a cell (the
    ``jobs>1`` slots forked after it), and wait to be killed."""
    sup = RunSupervisor(isolation="process", timeout_s=60)
    ok = sup.run(make_spec()).ok
    hung = [RunSupervisor(isolation="process", timeout_s=60)
            .start([make_spec(seed=1)]) for _ in range(busy)]
    report.send((ok, child_of(sup).pid,
                 [dispatch._process.pid for dispatch in hung]))
    time.sleep(60)  # killed long before


def run_doomed_driver(busy: int = 0) -> tuple:
    """Start :func:`_doomed_driver`, SIGKILL it once it has reported,
    and return its report."""
    ours, theirs = multiprocessing.Pipe(duplex=False)
    driver = multiprocessing.get_context("fork").Process(
        target=_doomed_driver, args=(theirs, busy)
    )
    driver.start()
    try:
        theirs.close()
        assert ours.poll(60), "driver never reported"
        report = ours.recv()
    finally:
        driver.kill()
        driver.join(10)
    assert not driver.is_alive()
    return report


@needs_fork
def test_child_does_not_outlive_a_killed_driver():
    """SIGKILL runs no handler in the driver: the child goes because
    its ``recv`` reads end-of-file, which takes the driver's end of
    the pipe being closed in the child."""
    ok, child_pid, _ = run_doomed_driver()
    assert ok
    assert wait_gone(child_pid, within_s=2.0)


@needs_fork
def test_idle_child_does_not_wait_for_a_busy_sibling(hang_cell):
    """A child forked later (another ``jobs`` slot) inherits the
    driver's end of every earlier child's pipe.  It closes them, so an
    idle child reads end-of-file as soon as the driver is killed, not
    when a sibling still busy with a cell finally exits."""
    hang_cell(lambda spec: spec.seed == 1)
    ok, child_pid, busy_pids = run_doomed_driver(busy=1)
    try:
        assert ok and not gone(busy_pids[0])
        assert wait_gone(child_pid, within_s=2.0)
    finally:
        for pid in busy_pids:
            os.kill(pid, signal.SIGKILL)


def test_a_jobs_slot_copy_starts_its_own_child(supervisor, closes):
    """The ``jobs=2`` slots are the caller's supervisor and a spare
    copy of it: the copy starts a child of its own and closes it at the
    end, and the caller's keeps serving from its one child."""
    assert supervisor.run(make_spec()).ok
    mine = child_of(supervisor)
    assert supervisor.spare()._child is None

    names = ("mcf", "gzip", "ammp", "art")
    lanes = [Lane(key=(name,), specs=[make_spec(workload=name)])
             for name in names]
    records = execute_lanes(lanes, jobs=2, supervisor=supervisor)
    assert [r["status"] for r in records.values()] == ["ok"] * len(names)

    [(_, spares)] = closes  # the spare's, hung up on and joined
    assert spares is not mine and spares.exitcode == 0
    assert child_of(supervisor) is mine and mine.is_alive()
    assert supervisor.run(make_spec(workload="twolf")).ok
    assert child_of(supervisor) is mine


# ----------------------------------------------------------------------
# One child per campaign; a record does not depend on the child's past
# ----------------------------------------------------------------------
def smoke_study():
    """The smoke study of ``bench/workloads.py``: its V16/M16 twolf
    cell exhausts its budget and is retried once."""
    every_fourth = viable_designs()[::4]
    return [every_fourth[0], every_fourth[13]], ("gzip", "twolf")


STUDY = dict(max_cycles=100_000, max_retries=1)


@pytest.fixture
def starts(monkeypatch):
    """Counts ``Process.start`` calls made by this process."""
    calls = []
    start = multiprocessing.process.BaseProcess.start

    def counted(self):
        calls.append(self.name)
        return start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counted)
    return calls


def run_study(path, isolation: str, **kwargs) -> dict[str, dict]:
    designs, names = smoke_study()
    design_space_sweep(
        designs, names, Scale.TINY, False, ledger_path=path, jobs=1,
        isolation=isolation, **STUDY, **kwargs,
    )
    return {cell: stripped(record)
            for cell, record in Ledger(path).load().items()}


def test_one_child_per_campaign_and_records_do_not_depend_on_its_past(
        tmp_path, starts):
    inline = run_study(tmp_path / "inline.jsonl", "inline")
    assert starts == []
    forked = run_study(tmp_path / "process.jsonl", "process")
    assert len(starts) == 1  # four cells and one retry
    assert forked == inline
    retried = [r for r in forked.values() if r["status"] != "ok"]
    assert [(r["attempts"], r["retries"]) for r in retried] == [(2, 1)]

    # The same cells, submitted the other way round to one child.
    designs, names = smoke_study()
    specs = [
        spec for lane in build_lanes(
            designs, names, Scale.TINY, False, (), STUDY["max_cycles"],
            SWEEP_MAX_EVENTS,
        ) for spec in lane.specs
    ]
    assert {spec.cell_hash() for spec in specs} == set(forked)
    backwards, _ = sweep_cells(
        reversed(specs), supervisor=RunSupervisor(
            isolation="process", max_retries=STUDY["max_retries"]),
    )
    assert len(starts) == 2
    assert {cell: stripped(r) for cell, r in backwards.items()} == forked


def test_a_sigkill_mid_cell_costs_one_more_child_and_no_retry(
        tmp_path, starts, kill_mid_cell):
    """The campaign's child is SIGKILLed in the middle of its first
    cell: the circuit breaker sends the cell out again, a second child
    runs it, and no record -- ``attempts`` and ``retries`` included --
    differs from the clean run's."""
    clean = run_study(tmp_path / "clean.jsonl", "process")
    del starts[:]
    killer = kill_mid_cell(lambda spec: spec.workload == "gzip")
    killed = run_study(tmp_path / "killed.jsonl", "process")
    assert killer.wait(60) == 0
    assert len(starts) == 2  # the campaign's child, and its successor
    assert killed == clean


# ----------------------------------------------------------------------
# A caller's supervisor is the caller's to close
# ----------------------------------------------------------------------
def two_lanes() -> list[Lane]:
    return [Lane(key=(i,), specs=[make_spec(workload=name)])
            for i, name in enumerate(("mcf", "gzip"))]


@pytest.fixture
def closes(monkeypatch):
    """Logs ``("close", idle child or None)`` for every
    ``RunSupervisor.close`` in this process."""
    log = []
    close = RunSupervisor.close

    def counted(self):
        log.append(("close", self._child and self._child[0]))
        return close(self)

    monkeypatch.setattr(RunSupervisor, "close", counted)
    return log


def test_execute_lanes_leaves_a_callers_supervisor_open(closes, supervisor):
    execute_lanes(two_lanes(), supervisor=supervisor)
    assert closes == []
    assert child_of(supervisor).is_alive()


# ----------------------------------------------------------------------
# The child stays flat; the spawn start method
# ----------------------------------------------------------------------
def rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise AssertionError(f"no VmRSS for pid {pid}")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmRSS from /proc")
def test_child_memory_stays_flat_over_many_cells(supervisor):
    """Forty cells through one child, every other one failing (that
    path leaves traceback <-> frame cycles to the collector).  Only
    growth is a leak: the allocator may hand pages back, so the
    resident size can also fall between the readings."""
    starved = make_spec(max_cycles=50)
    cells = [make_spec(), starved] * 20
    readings = {}
    for count, spec in enumerate(cells, start=1):
        assert supervisor.run(spec).ok == (spec != starved)
        if count in (4, 40):
            readings[count] = rss_mb(child_of(supervisor).pid)
    assert readings[40] - readings[4] < 2.0, readings


def test_spawned_child_is_reused_and_agrees_with_a_forked_one():
    """The start method decides what the first cell costs (a spawned
    child imports the package) and nothing else."""
    payloads, walls = {}, {}
    for method in ("spawn", "fork") if HAS_FORK else ("spawn",):
        sup = RunSupervisor(isolation="process", timeout_s=120,
                            mp_context=method)
        try:
            walls[method] = []
            for _ in range(2):
                started = time.perf_counter()
                result = sup.run(make_spec())
                walls[method].append(time.perf_counter() - started)
                assert result.ok
            only = child_of(sup)
            payloads[method] = stripped(result.outcome)
        finally:
            sup.close()
        assert only.exitcode == 0
    # No second interpreter start: the first spawned cell pays for one
    # (0.8 s against a 0.05 s cell), the second does not.
    first, second = walls["spawn"]
    assert second < first / 2, walls
    if HAS_FORK:
        assert payloads["spawn"] == payloads["fork"]
