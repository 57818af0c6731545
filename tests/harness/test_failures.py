"""The failure taxonomy: each class is raised for its own cause and
carries structured diagnostics."""

import pytest

from repro.core.config import BASELINE
from repro.sim import simulate
from repro.sim.failures import (
    FAILURE_CLASSES,
    CycleBudgetExhausted,
    EventBudgetExhausted,
    FailureDiagnostics,
    SimulationDeadlock,
    SimulationFailure,
    TrueDeadlock,
    WatchdogTimeout,
    classify,
    is_transient,
)

from ..conftest import build_counted_sum, build_dangling_graph


def test_cycle_budget_exhaustion_class():
    graph, _ = build_counted_sum(30, k=4)
    with pytest.raises(CycleBudgetExhausted) as info:
        simulate(graph, BASELINE, max_cycles=5)
    exc = info.value
    assert isinstance(exc, SimulationDeadlock)  # umbrella intact
    diag = exc.diagnostics
    assert diag is not None
    assert diag.max_cycles == 5
    assert diag.events_processed > 0
    assert set(diag.queue_depths) >= {"matching_rows", "event_calendar"}


def test_event_budget_exhaustion_class():
    graph, _ = build_counted_sum(30, k=4)
    with pytest.raises(EventBudgetExhausted) as info:
        simulate(graph, BASELINE, max_events=10)
    diag = info.value.diagnostics
    assert diag is not None
    assert diag.events_processed == 11  # the tripping event
    assert diag.max_events == 10


def test_true_deadlock_class_and_tokens_in_flight():
    graph = build_dangling_graph()
    with pytest.raises(TrueDeadlock, match="partial rows") as info:
        simulate(graph, BASELINE)
    diag = info.value.diagnostics
    assert diag is not None
    assert diag.tokens_in_flight >= 1
    assert diag.queue_depths["matching_rows"] >= 1
    assert diag.events_pending == 0  # calendar drained: a true stop


def test_taxonomy_is_catchable_as_deadlock():
    """Legacy `except SimulationDeadlock` sites see every class."""
    for cls in FAILURE_CLASSES.values():
        assert issubclass(cls, SimulationDeadlock)
    assert SimulationFailure is SimulationDeadlock


def test_classify_and_transience():
    assert classify("TrueDeadlock") is TrueDeadlock
    assert classify("no-such-class") is SimulationDeadlock
    assert is_transient("CycleBudgetExhausted")
    assert is_transient(EventBudgetExhausted("x"))
    assert not is_transient("TrueDeadlock")
    assert not is_transient(WatchdogTimeout("x"))


def test_diagnostics_round_trip():
    diag = FailureDiagnostics(
        cycles=10, events_processed=5, events_pending=2,
        tokens_in_flight=3, queue_depths={"matching_rows": 3},
        max_cycles=100, max_events=200,
    )
    assert FailureDiagnostics.from_dict(diag.to_dict()) == diag
