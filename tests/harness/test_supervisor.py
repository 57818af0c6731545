"""The run supervisor: classification, retry policy, watchdog."""

import pytest

from repro.core import WaveScalarConfig
from repro.harness import (
    CellSpec,
    RunSupervisor,
    execute_cell,
)

CFG = WaveScalarConfig(clusters=1, l2_mb=1)


def make_spec(**kwargs) -> CellSpec:
    defaults = dict(config=CFG, workload="mcf", scale="tiny")
    defaults.update(kwargs)
    return CellSpec(**defaults)


@pytest.fixture(scope="module")
def reference_outcome():
    """One unsupervised run for ground truth (cycles, aipc)."""
    return execute_cell(make_spec())


# ----------------------------------------------------------------------
# Success paths
# ----------------------------------------------------------------------
def test_inline_success(reference_outcome):
    result = RunSupervisor(isolation="inline").run(make_spec())
    assert result.ok and result.status == "ok"
    assert result.attempts == 1 and result.retries == 0
    assert result.aipc == pytest.approx(reference_outcome["aipc"])


def test_process_isolation_matches_inline(reference_outcome):
    result = RunSupervisor(isolation="process", timeout_s=120).run(
        make_spec()
    )
    assert result.ok
    assert result.aipc == pytest.approx(reference_outcome["aipc"])
    assert result.outcome["cycles"] == reference_outcome["cycles"]


# ----------------------------------------------------------------------
# Retry policy: transient budget failures escalate, others do not
# ----------------------------------------------------------------------
def test_budget_failure_retries_with_escalation(reference_outcome):
    """A cell whose first budget is too small succeeds on retry."""
    starved = make_spec(
        max_cycles=max(2, reference_outcome["cycles"] // 2)
    )
    result = RunSupervisor(
        isolation="inline", max_retries=2
    ).run(starved)
    assert result.ok
    assert result.retries >= 1
    # The recorded spec carries the escalated budget that worked.
    assert result.spec.max_cycles > starved.max_cycles


def test_persistent_starvation_exhausts_retries():
    """A budget too small even after escalation: the supervisor
    retries its bounded number of times, then records the verdict of
    the last, escalated attempt."""
    spec = make_spec(max_cycles=50)  # the cell needs ~8k cycles
    result = RunSupervisor(
        isolation="inline", max_retries=2
    ).run(spec)
    assert not result.ok
    assert result.failure_class == "CycleBudgetExhausted"
    assert result.attempts == 3  # initial + 2 retries
    assert result.spec.max_cycles == 800  # 50 x 4 x 4
    assert result.diagnostics["max_cycles"] == 800


def test_event_starvation_classified():
    spec = make_spec(max_events=25)
    result = RunSupervisor(
        isolation="inline", max_retries=1
    ).run(spec)
    assert not result.ok
    assert result.failure_class == "EventBudgetExhausted"
    assert result.attempts == 2
    assert result.diagnostics["max_events"] == 100


def test_true_deadlock_not_retried(halffed):
    """Deterministic failures are recorded immediately -- retrying a
    deadlock only burns time."""
    spec = make_spec(workload=halffed)
    result = RunSupervisor(isolation="inline", max_retries=5).run(spec)
    assert not result.ok
    assert result.failure_class == "TrueDeadlock"
    assert result.attempts == 1
    assert result.diagnostics["tokens_in_flight"] >= 1


# ----------------------------------------------------------------------
# Watchdog + crash handling (subprocess isolation)
# ----------------------------------------------------------------------
def test_watchdog_kills_hung_worker(hang_cell):
    hang_cell()
    result = RunSupervisor(
        isolation="process", timeout_s=1.0, max_retries=3
    ).run(make_spec())
    assert not result.ok
    assert result.failure_class == "WatchdogTimeout"
    assert result.attempts == 1  # timeouts are not retried
    assert "killed" in result.failure_detail


def test_worker_crash_classified(monkeypatch):
    """A worker that dies without reporting becomes WorkerCrash."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork to inherit the monkeypatched worker")
    import os

    from repro.harness import supervisor as supervisor_mod

    def die(spec):
        os._exit(17)

    monkeypatch.setattr(supervisor_mod, "execute_cell", die)
    result = RunSupervisor(
        isolation="process", timeout_s=60, mp_context="fork"
    ).run(make_spec())
    assert not result.ok
    assert result.failure_class == "WorkerCrash"
    assert "17" in result.failure_detail


def test_unexpected_exception_classified_by_name():
    """Non-taxonomy errors surface under their own class name."""
    spec = make_spec(workload="no-such-workload")
    result = RunSupervisor(isolation="process", timeout_s=60).run(spec)
    assert not result.ok
    assert result.failure_class == "KeyError"


def test_inline_attempt_classifies_like_the_forked_child(halffed):
    """An exception out of an inline attempt is a verdict, not the end
    of the sweep: the same class, detail, diagnostics and accounting
    the forked child ships -- for a non-taxonomy error and for a true
    deadlock alike."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork to inherit the registered workload")
    for workload, failure_class in (("no-such-workload", "KeyError"),
                                    (halffed, "TrueDeadlock")):
        spec = make_spec(workload=workload)
        inline = RunSupervisor(isolation="inline").run(spec)
        forked = RunSupervisor(isolation="process", timeout_s=60).run(spec)
        assert inline.failure_class == failure_class
        for field in ("status", "failure_class", "failure_detail",
                      "diagnostics", "attempts", "retries", "backend"):
            assert getattr(inline, field) == getattr(forked, field), \
                (workload, field)


def test_inline_reference_mismatch_is_a_failed_verdict(monkeypatch):
    from repro.sim.compile import CompiledWorkload

    monkeypatch.setattr(CompiledWorkload, "expected_outputs",
                        lambda self: ["not what the program prints"])
    result = RunSupervisor(isolation="inline").run(make_spec())
    assert result.status == "failed"
    assert result.failure_class == "AssertionError"
    assert "!= reference" in result.failure_detail


# ----------------------------------------------------------------------
# Construction guards
# ----------------------------------------------------------------------
def test_supervisor_rejects_bad_arguments():
    with pytest.raises(ValueError):
        RunSupervisor(isolation="container")


@pytest.mark.parametrize("timeout_s", [0, -1.0, float("inf"),
                                       float("nan")])
def test_watchdog_allowance_must_be_a_positive_number(timeout_s):
    """A zero allowance would kill every attempt the moment it is sent;
    ``None`` is how to ask for no watchdog."""
    with pytest.raises(ValueError, match="timeout_s"):
        RunSupervisor(timeout_s=timeout_s)


def test_cell_hash_covers_budgets_and_faults():
    base = make_spec()
    assert base.cell_hash() != make_spec(max_cycles=1).cell_hash()
    assert base.cell_hash() != make_spec(max_events=1).cell_hash()
    assert base.cell_hash() == make_spec().cell_hash()
    # Round trip through the ledger representation.
    assert CellSpec.from_dict(base.as_dict()) == base
    # Faults: the record keeps a constant null so every hash stays
    # valid, and a record carrying a plan is refused, not run as
    # another cell.
    assert base.as_dict()["faults"] is None
    faulted = dict(base.as_dict(), faults={"drop_every_n": 2})
    with pytest.raises(ValueError, match="mcf@tiny"):
        CellSpec.from_dict(faulted)


def test_hashes_memoised_per_instance_only():
    """The digests are cached on the instance, outside the dataclass
    fields: equal specs agree, a derived spec hashes afresh, and the
    memo is invisible to ``==`` and the ledger representation."""
    import pickle
    from dataclasses import asdict

    spec, twin = make_spec(), make_spec()
    cold_dict, cold_fields = spec.as_dict(), asdict(spec)
    cell, identity = spec.cell_hash(), spec.identity_hash()
    assert (spec.cell_hash(), spec.identity_hash()) == (cell, identity)
    assert cell != identity
    assert spec == twin and hash(spec) == hash(twin)
    assert (twin.cell_hash(), twin.identity_hash()) == (cell, identity)
    assert spec.as_dict() == cold_dict and asdict(spec) == cold_fields

    bigger = spec.escalated(4.0)
    assert bigger.cell_hash() != cell
    assert bigger.cell_hash() == \
        make_spec(max_cycles=bigger.max_cycles,
                  max_events=bigger.max_events).cell_hash()
    assert bigger.identity_hash() == identity

    for original in (spec, make_spec()):  # memo warm, memo cold
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original
        assert (copy.cell_hash(), copy.identity_hash()) == (cell, identity)
