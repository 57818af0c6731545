"""Tests for the WaveScalarProcessor API and result objects."""

import pytest

from repro.core import (
    BASELINE,
    WaveScalarConfig,
    WaveScalarProcessor,
)
from repro.workloads import Scale, get

from ..conftest import build_counted_sum


def test_run_simple_graph():
    graph, expected = build_counted_sum(8, k=2)
    proc = WaveScalarProcessor(BASELINE)
    result = proc.run(graph)
    assert result.outputs() == [expected]
    assert result.cycles > 0
    assert result.aipc > 0
    assert result.area_mm2 == pytest.approx(46.5, abs=1.0)
    assert result.program == graph.name


def _run_plain():
    graph, expected = build_counted_sum(8, k=2)
    result = WaveScalarProcessor(BASELINE).run(graph)
    assert result.outputs() == [expected]


def _run_batched():
    from repro.harness.supervisor import CellSpec, execute_batch

    spec = CellSpec(config=BASELINE, workload="mcf", scale="tiny")
    payloads = execute_batch([spec, spec])
    assert [p["status"] for p in payloads] == ["ok", "ok"]


@pytest.mark.parametrize("backend", ("plain", "batched"))
def test_finished_engine_is_freed_without_the_cycle_collector(backend):
    """Peak memory must not grow with the number of cells run: the
    engine of a finished run -- a single run, or every cell of a
    batch group -- is released by reference count."""
    import gc

    from repro.sim.engine import Engine

    run = {"plain": _run_plain, "batched": _run_batched}[backend]
    gc.collect()
    gc.disable()
    try:
        run()
        alive = [o for o in gc.get_objects() if isinstance(o, Engine)]
    finally:
        gc.enable()
    assert alive == []


def test_run_workload_checks_reference():
    proc = WaveScalarProcessor(BASELINE)
    result = proc.run_workload(get("mcf"), scale=Scale.TINY)
    assert result.outputs() == get("mcf").expected(Scale.TINY)


def test_run_workload_threads():
    proc = WaveScalarProcessor(WaveScalarConfig(clusters=4))
    result = proc.run_workload(get("fft"), scale=Scale.TINY, threads=8)
    assert result.threads == 8
    assert result.outputs() == get("fft").expected(Scale.TINY, threads=8)


def test_run_rebinds_k():
    graph, expected = build_counted_sum(12)
    proc = WaveScalarProcessor(BASELINE)
    tight = proc.run(graph, k=1)
    loose = proc.run(graph, k=8)
    assert tight.outputs() == loose.outputs() == [expected]
    assert tight.cycles >= loose.cycles


def test_result_derived_metrics():
    graph, _ = build_counted_sum(8, k=2)
    proc = WaveScalarProcessor(BASELINE)
    result = proc.run(graph)
    assert result.ipc >= result.aipc
    assert result.aipc_per_mm2 == pytest.approx(
        result.aipc / result.area_mm2
    )
    assert result.runtime_seconds > 0
    assert graph.name in result.summary()


def test_frequency_and_describe():
    proc = WaveScalarProcessor(BASELINE)
    # 20 FO4 at 47.4ps/FO4 -> ~1.05 GHz.
    assert proc.frequency_ghz == pytest.approx(1.05, abs=0.05)
    assert "FO4" in proc.describe()


def test_experiments_cache():
    from repro.core.experiments import clear_cache, run_cached

    clear_cache()
    r1 = run_cached(BASELINE, "mcf", Scale.TINY)
    r2 = run_cached(BASELINE, "mcf", Scale.TINY)
    assert r1 is r2
    clear_cache()
    r3 = run_cached(BASELINE, "mcf", Scale.TINY)
    assert r3 is not r1
    assert r3.aipc == r1.aipc  # deterministic


def test_threaded_suite_result_is_feasible_best():
    from repro.core.experiments import run_cached, suite_results
    from repro.harness.sweep import feasible_thread_counts

    config = WaveScalarConfig(clusters=4)
    (result,) = suite_results(config, ("radix",), Scale.TINY,
                              threaded=True)
    assert result.threads in feasible_thread_counts(get("radix"),
                                                    Scale.TINY)
    assert result.aipc >= max(
        run_cached(config, "radix", Scale.TINY, threads=t).aipc
        for t in (1, 4)
    )
