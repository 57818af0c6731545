"""Tests for the experiment drivers."""

import logging
from functools import partial

import pytest

from repro.core import WaveScalarConfig, experiments
from repro.core.experiments import (
    clear_cache,
    evaluate_design_space,
    run_cached,
    scaling_study,
    suite_results,
    traffic_profile,
    tuning_config,
)
from repro.design import DesignPoint, pareto_front, replicate
from repro.area.model import chip_area
from repro.harness import supervisor
from repro.harness.spec import SWEEP_MAX_CYCLES, SWEEP_MAX_EVENTS
from repro.harness.sweep import (
    THREAD_CANDIDATES,
    design_space_sweep,
    feasible_thread_counts,
)
from repro.report import pareto_table
from repro.sim.compile import CompiledWorkload
from repro.workloads import Scale, get

CFG = WaveScalarConfig(clusters=1, l2_mb=1)
#: Starved enough that Splash2 lanes fail at different thread counts.
STARVED = WaveScalarConfig(clusters=16, virtualization=16,
                           matching_entries=16, l1_kb=16, l2_mb=1)


def design_of(config):
    return DesignPoint(config=config, area_mm2=chip_area(config))


def sweep_cell(config, name, threads=None):
    """One cell under the sweep budgets, by the single-cell path."""
    return run_cached(
        config, name, Scale.TINY, threads=threads,
        max_cycles=SWEEP_MAX_CYCLES, max_events=SWEEP_MAX_EVENTS,
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_feasible_thread_counts_respect_problem_size():
    counts = feasible_thread_counts(get("fft"), Scale.TINY)
    assert 1 in counts
    assert all(a < b for a, b in zip(counts, counts[1:]))
    assert max(counts) <= max(THREAD_CANDIDATES)


def test_best_thread_count_wins():
    aipcs = [sweep_cell(CFG, "radix", threads=t).aipc for t in (1, 4)]
    (point,) = evaluate_design_space(
        [design_of(CFG)], ("radix",), Scale.TINY, threaded=True,
        candidates=(1, 4),
    )
    assert point.performance == max(aipcs)


def test_suite_score_is_mean_over_names():
    a = sweep_cell(CFG, "mcf").aipc
    b = sweep_cell(CFG, "gzip").aipc
    (point,) = evaluate_design_space(
        [design_of(CFG)], ("mcf", "gzip"), Scale.TINY
    )
    assert point.performance == pytest.approx((a + b) / 2)


def test_threaded_study_scores_failing_lanes(caplog):
    """A lane that fails at its first thread count scores zero; one
    that fails later keeps the best it measured before the failure."""
    from repro.sim.failures import (
        CycleBudgetExhausted,
        EventBudgetExhausted,
    )

    with pytest.raises(EventBudgetExhausted):
        sweep_cell(STARVED, "lu", threads=1)
    ocean = sweep_cell(STARVED, "ocean", threads=1).aipc
    with pytest.raises(EventBudgetExhausted):
        sweep_cell(STARVED, "ocean", threads=2)
    fft = [sweep_cell(STARVED, "fft", threads=t).aipc
           for t in (1, 2, 4, 8)]
    with pytest.raises(CycleBudgetExhausted):
        sweep_cell(STARVED, "fft", threads=16)

    with caplog.at_level(logging.WARNING, logger="repro.harness"):
        (point,) = evaluate_design_space(
            [design_of(STARVED)], ("lu", "ocean", "fft"), Scale.TINY,
            threaded=True,
        )
    assert point.performance == (0.0 + ocean + max(fft)) / 3
    lines = [record.getMessage() for record in caplog.records]
    assert len(lines) == 3
    for line, cell in zip(lines, (
        "lu x1thr on {}: EventBudgetExhausted",
        "ocean x2thr on {}: EventBudgetExhausted",
        "fft x16thr on {}: CycleBudgetExhausted",
    )):
        assert line.startswith(cell.format(STARVED.describe()))


def test_zero_scored_cell_is_logged_with_its_class(caplog):
    """The audit line names the recorded failure class and thread
    count, not a generic deadlock."""
    config = WaveScalarConfig(clusters=4, virtualization=32,
                              matching_entries=32, l1_kb=8, l2_mb=0)
    with caplog.at_level(logging.WARNING, logger="repro.harness"):
        (point,) = evaluate_design_space(
            [design_of(config)], ("lu",), Scale.TINY, threaded=True
        )
    assert point.performance == 0.0
    (line,) = [r.getMessage() for r in caplog.records]
    assert line.startswith(
        "lu x1thr on C4xD4xP8 V32 M32 L1:8KB L2:0MB: EventBudgetExhausted"
    )


def test_wrong_answer_is_not_a_zero_score(monkeypatch):
    """A failed reference check is a simulator bug, never a score: not
    a zero, and not a lane that quietly keeps its earlier best."""
    reference = CompiledWorkload.expected_outputs
    monkeypatch.setattr(
        CompiledWorkload, "expected_outputs",
        lambda self: ["wrong"] if self.threads == 2 else reference(self),
    )
    with pytest.raises(RuntimeError, match="radix x2thr on .*AssertionError"):
        evaluate_design_space(
            [design_of(CFG)], ("radix",), Scale.TINY, threaded=True
        )
    with pytest.raises(AssertionError, match="radix: simulator output"):
        suite_results(CFG, ("radix",), Scale.TINY, threaded=True)


def test_rejected_configuration_is_not_a_zero_score():
    sixteen = WaveScalarConfig(clusters=16, virtualization=64,
                               matching_entries=64, l1_kb=8, l2_mb=1)
    scaled = replicate(sixteen, 4)
    with pytest.raises(RuntimeError, match="exceeds the 400 mm2 budget"):
        evaluate_design_space(
            [DesignPoint(config=scaled.config, area_mm2=scaled.area_mm2)],
            ("radix",), Scale.TINY, threaded=True,
        )


def test_budget_failure_scores_zero(monkeypatch):
    monkeypatch.setattr(
        experiments, "design_space_sweep",
        partial(design_space_sweep, max_cycles=50),
    )
    (point,) = evaluate_design_space([design_of(CFG)], ("mcf",), Scale.TINY)
    assert point.performance == 0.0


def test_evaluate_design_space_points():
    designs = [
        DesignPoint(config=CFG, area_mm2=chip_area(CFG)),
        DesignPoint(
            config=WaveScalarConfig(clusters=1, l1_kb=8),
            area_mm2=chip_area(WaveScalarConfig(clusters=1, l1_kb=8)),
        ),
    ]
    points = evaluate_design_space(designs, ("mcf",), Scale.TINY)
    assert len(points) == 2
    for point, design in zip(points, designs):
        assert point.area == design.area_mm2
        assert point.performance > 0
        assert point.payload == design.config


def test_pareto_table_renders():
    designs = [DesignPoint(config=CFG, area_mm2=chip_area(CFG))]
    points = evaluate_design_space(designs, ("mcf",), Scale.TINY)
    text = pareto_table(points)
    assert "AIPC" in text
    assert "C1" in text


def test_traffic_profile_fractions_sum():
    profile = traffic_profile(CFG, ("mcf", "djpeg"), Scale.TINY)
    level_sum = sum(profile[k] for k in ("pod", "domain", "cluster",
                                         "grid"))
    kind_sum = profile["operand"] + profile["memory"]
    assert level_sum == pytest.approx(1.0)
    assert kind_sum == pytest.approx(1.0)


def test_tuning_config_shapes():
    config = tuning_config(k=3, matching_entries=48, pes=4)
    assert config.matching_hash_k == 3
    assert config.matching_entries == 48
    assert config.virtualization == 256
    assert config.pes_per_domain == 4
    # Infinite-table stand-ins are clamped to something buildable.
    big = tuning_config(k=2, matching_entries=1 << 20)
    assert big.matching_entries <= 1 << 14


def test_cache_distinguishes_parameters():
    a = run_cached(CFG, "mcf", Scale.TINY)
    b = run_cached(CFG, "mcf", Scale.TINY, k=1)
    assert a is not b


def test_cache_distinguishes_budgets():
    """A verdict reached under a small budget must not be reused for a
    request with a larger one (the old key omitted the budgets)."""
    from repro.sim.failures import CycleBudgetExhausted

    with pytest.raises(CycleBudgetExhausted):
        run_cached(CFG, "mcf", Scale.TINY, max_cycles=50)
    # The full-budget request runs fresh and succeeds.
    result = run_cached(CFG, "mcf", Scale.TINY)
    assert result.aipc > 0


def test_cache_stores_negative_results():
    """A known-failing cell re-raises from cache instead of
    re-simulating."""
    from repro.sim.failures import CycleBudgetExhausted

    with pytest.raises(CycleBudgetExhausted) as first:
        run_cached(CFG, "mcf", Scale.TINY, max_cycles=50)
    populated = dict(experiments._CACHE)
    with pytest.raises(CycleBudgetExhausted) as second:
        run_cached(CFG, "mcf", Scale.TINY, max_cycles=50)
    assert second.value is first.value  # served from cache
    assert experiments._CACHE == populated  # no new entries


def test_suite_mean_reports_failures():
    """Zero-scored workloads are listed on the report with their
    class, not silently swallowed."""
    sweep = partial(
        design_space_sweep, [design_of(CFG)], ("mcf",), Scale.TINY,
        isolation="inline",
    )
    points, report = sweep(max_cycles=50, max_retries=0)
    assert points[0].performance == 0.0
    (failure,) = report.failures
    assert failure.workload == "mcf"
    assert failure.failure_class == "CycleBudgetExhausted"
    assert "exceeded 50 cycles" in failure.render()
    # A successful suite carries an empty list.
    points, report = sweep()
    assert report.failures == []
    assert points[0].performance > 0


def test_evaluate_design_space_with_ledger(tmp_path):
    """A ledgered study gives the points of an unledgered one, and a
    resume serves every cell from the ledger."""
    designs = [design_of(STARVED)]
    names = ("ocean", "fft")
    baseline = evaluate_design_space(
        designs, names, Scale.TINY, threaded=True
    )
    path = tmp_path / "runs.jsonl"
    assert evaluate_design_space(
        designs, names, Scale.TINY, threaded=True, ledger_path=path
    ) == baseline
    points, report = design_space_sweep(
        designs, names, Scale.TINY, threaded=True, ledger_path=path,
        resume=True, isolation="inline", max_retries=0,
    )
    assert points == baseline
    # ocean x1 and x2 (fails), fft x1..x16 (fails): every line a cell.
    assert len(path.read_text().splitlines()) == 7
    assert report.skipped == report.total == 7


def test_front_of_evaluated_points_is_consistent():
    designs = [
        DesignPoint(config=c, area_mm2=chip_area(c))
        for c in (
            WaveScalarConfig(clusters=1, l1_kb=8),
            WaveScalarConfig(clusters=1, l1_kb=8, l2_mb=1),
        )
    ]
    points = evaluate_design_space(designs, ("mcf",), Scale.TINY)
    front = pareto_front(points)
    assert 1 <= len(front) <= 2


def test_scaling_study_smoke(tmp_path, monkeypatch):
    """End-to-end a/b/c/d/e selection on a minimal design set, and its
    resume: the ledger covers the replicated b/d/e16 too."""
    study = partial(
        scaling_study, scale=Scale.TINY, names=("radix",),
        ledger_path=tmp_path / "runs.jsonl",
        designs=[design_of(config) for config in (
            WaveScalarConfig(clusters=1, l1_kb=8, l2_mb=0),
            WaveScalarConfig(clusters=1, l1_kb=8, l2_mb=1),
            # No L2: replicated x4 with one, 'e16' is over the 400 mm2
            # die limit, which the study refuses to score.
            WaveScalarConfig(clusters=4, virtualization=64,
                             matching_entries=64, l1_kb=8, l2_mb=0),
        )],
    )
    named, measured = study()
    assert named.b.config.clusters == 4
    assert named.e16.config.clusters == 16
    for key in ("a", "b", "c", "d", "e", "e16"):
        assert measured[key] > 0

    def no_simulation(spec, backend=None):
        raise AssertionError(f"resume simulated {spec.describe()}")

    monkeypatch.setattr(supervisor, "simulate_cell", no_simulation)
    assert study(resume=True) == (named, measured)
