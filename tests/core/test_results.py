"""Tests for result containers."""

import pytest

from repro.area.model import breakdown
from repro.area.timing import timing_report
from repro.core import BASELINE, WaveScalarConfig, WaveScalarProcessor
from repro.core.results import SimulationResult
from repro.sim.stats import SimStats


def make_result(program="p", config=BASELINE, aipc_cycles=(100, 1000)):
    stats = SimStats()
    stats.alpha_instructions, stats.cycles = aipc_cycles
    return SimulationResult(
        program=program,
        config=config,
        stats=stats,
        area=breakdown(config),
        timing=timing_report(config),
    )


def test_headline_metrics():
    result = make_result()
    assert result.aipc == pytest.approx(0.1)
    assert result.cycles == 1000
    assert result.runtime_seconds == pytest.approx(
        1000 * result.timing.cycle_ps * 1e-12
    )


def test_summary_mentions_program_and_config():
    result = make_result("fft")
    text = result.summary()
    assert "fft" in text
    assert "C1" in text


def test_result_outputs_ordered_by_instruction():
    stats = SimStats()
    stats.outputs = {5: [10], 2: [20, 30]}
    result = SimulationResult(
        program="p", config=BASELINE, stats=stats,
        area=breakdown(BASELINE), timing=timing_report(BASELINE),
    )
    assert result.outputs() == [20, 30, 10]


def test_warm_cache_option_changes_timing_not_results():
    from repro.workloads import Scale, get

    w = get("mcf")
    graph = w.instantiate(Scale.TINY)
    proc = WaveScalarProcessor(WaveScalarConfig(l1_kb=8, l2_mb=1))
    from repro.place.snake import place
    from repro.sim.engine import Engine

    placement = place(graph, proc.config)
    warm = Engine(graph, proc.config, placement).run()
    cold_engine = Engine(graph, proc.config, placement)
    cold_engine.memory.l2._data.clear()  # undo the warm-up
    cold = cold_engine.run()
    assert warm.output_values() == cold.output_values()
    assert warm.cycles < cold.cycles  # warm L2 hides the DRAM trips
