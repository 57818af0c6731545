"""Tests for the Table 4 tuning machinery (with analytic stand-ins)."""

import pytest

from repro.design import (
    INFINITE_MATCHING,
    find_k_opt,
    find_u_opt,
    processor_ratio,
    tune_application,
)
from repro.design.virtualization import TuningResult


def saturating_performance(k_sat: int, u_tolerance: int):
    """An analytic app: perf grows with k up to k_sat; oversubscribing
    the matching table below 256*k/u_tolerance entries hurts."""

    def evaluate(k: int, entries: int) -> float:
        perf = min(k, k_sat) * 1.0
        needed = 256 * min(k, k_sat) / u_tolerance
        if entries < needed:
            perf *= 0.5  # significant drop
        return perf

    return evaluate


def test_find_k_opt_saturates():
    assert find_k_opt(saturating_performance(3, 8)) == 3
    assert find_k_opt(saturating_performance(1, 8)) == 1


def test_find_k_opt_uses_infinite_table():
    calls = []

    def evaluate(k, entries):
        calls.append(entries)
        return 1.0

    find_k_opt(evaluate)
    assert all(e == INFINITE_MATCHING for e in calls)


def test_find_u_opt_detects_drop():
    evaluate = saturating_performance(4, 8)
    assert find_u_opt(evaluate, k_opt=4) == 8
    assert find_u_opt(saturating_performance(4, 16), k_opt=4) == 16


def test_find_u_opt_handles_insensitive_app():
    # Performance never drops: u_opt is the largest candidate.
    assert find_u_opt(lambda k, e: 1.0, k_opt=2) == 64


def test_tune_application_ratio():
    result = tune_application("toy", saturating_performance(4, 8))
    assert result.k_opt == 4
    assert result.u_opt == 8
    assert result.virtualization_ratio == pytest.approx(0.5)


def test_processor_ratio_power_of_two_ceiling():
    results = [
        TuningResult("a", 3, 16, 3 / 16),
        TuningResult("b", 4, 4, 1.0),
        TuningResult("c", 4, 8, 0.5),
    ]
    assert processor_ratio(results) == 1.0
    low = [TuningResult("a", 2, 16, 0.125)]
    assert processor_ratio(low) == 0.125
    over = [TuningResult("a", 6, 4, 1.5)]
    assert processor_ratio(over) == 2.0


def test_processor_ratio_empty_raises():
    with pytest.raises(ValueError):
        processor_ratio([])


def test_all_zero_sweep_is_a_named_non_answer():
    """Every candidate scoring 0 (every run hit its budget) is no
    finding: no k_opt, no u_opt, no ratio, and processor_ratio refuses
    the row by name instead of reading the last candidate's 8."""
    assert find_k_opt(lambda k, e: 0.0) is None
    assert find_u_opt(lambda k, e: 0.0, k_opt=2) is None
    row = tune_application("raytrace", lambda k, e: 0.0)
    assert (row.k_opt, row.u_opt, row.virtualization_ratio) == \
        (None, None, None)
    assert not row.answered
    failed = TuningResult("raytrace", None, None, None,
                          failure="EventBudgetExhausted")
    assert not failed.answered
    good = TuningResult("b", 4, 4, 1.0)
    with pytest.raises(ValueError, match=r"raytrace \(EventBudgetExhausted\)"):
        processor_ratio([good, failed])
    with pytest.raises(ValueError, match="every candidate scored 0"):
        processor_ratio([good, row])


def test_zero_baseline_keeps_k_and_has_no_u():
    """k found, but the unsubscribed baseline scores 0: no u_opt."""
    row = tune_application(
        "toy", lambda k, e: float(min(k, 2)) if e == INFINITE_MATCHING
        else 0.0,
    )
    assert (row.k_opt, row.u_opt, row.answered) == (2, None, False)


def test_tune_workload_carries_the_failure_class(monkeypatch):
    """The failure that left the sweep without an answer rides on the
    row."""
    import repro.core.experiments as experiments
    from repro.sim.failures import EventBudgetExhausted

    def exhausted(*args, **kwargs):
        raise EventBudgetExhausted("starved", None)

    monkeypatch.setattr(experiments, "run_cached", exhausted)
    row = experiments.tune_workload("fft")
    assert not row.answered
    assert row.failure == "EventBudgetExhausted"
