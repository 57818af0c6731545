"""Tests for the 20 FO4 clock model."""

import pytest

from repro.area import (
    FO4_PS,
    TARGET_CYCLE_FO4,
    cycle_time_fo4,
    meets_clock_target,
    timing_report,
)
from repro.area.timing import FO1_PS
from repro.core.config import BASELINE, WaveScalarConfig


def test_fo4_derivation():
    """Section 2.1: FO1 measured at 15.8 ps, FO4 = 3x FO1 = ~47.3 ps."""
    assert FO1_PS == 15.8
    assert FO4_PS == pytest.approx(47.4, abs=0.2)


def test_baseline_meets_20_fo4():
    report = timing_report(BASELINE)
    assert report.meets_target
    assert report.cycle_fo4 == TARGET_CYCLE_FO4
    assert "multiply" in report.critical_path
    assert report.frequency_ghz == pytest.approx(1.055, abs=0.01)


def test_256_entry_matching_breaks_target():
    """Section 4.1: 256-entry matching cache costs ~21% cycle time."""
    config = WaveScalarConfig(matching_entries=256, virtualization=256)
    fo4, path = cycle_time_fo4(config)
    assert fo4 == pytest.approx(20 * 1.21)
    assert "MATCH" in path
    assert not meets_clock_target(config)


def test_256_entry_istore_costs_7_percent():
    config = WaveScalarConfig(virtualization=256, matching_entries=128)
    fo4, path = cycle_time_fo4(config)
    assert fo4 == pytest.approx(20 * 1.07)
    assert "DISPATCH" in path
    # 256 V is explicitly allowed (the paper's tuning testbed uses it)
    # but the cycle target check fails on the slower clock.
    assert not timing_report(config).meets_target


def test_sub_256_structures_keep_target():
    for m, v in ((16, 8), (64, 64), (128, 128)):
        config = WaveScalarConfig(matching_entries=m, virtualization=v)
        assert meets_clock_target(config), (m, v)


def test_cycles_to_seconds():
    from repro.area.model import breakdown
    from repro.core.results import SimulationResult
    from repro.sim.stats import SimStats

    stats = SimStats()
    stats.cycles = 1_000_000
    result = SimulationResult(
        program="p", config=BASELINE, stats=stats,
        area=breakdown(BASELINE), timing=timing_report(BASELINE),
    )
    # 1M cycles at ~1.05 GHz is ~0.95 ms.
    assert result.runtime_seconds == pytest.approx(948e-6, rel=0.01)


def test_larger_structures_run_slower_wallclock():
    fast = timing_report(BASELINE).frequency_ghz
    slow_config = WaveScalarConfig(matching_entries=256,
                                   virtualization=256)
    slow = timing_report(slow_config).frequency_ghz
    assert slow < fast
