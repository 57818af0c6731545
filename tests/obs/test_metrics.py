"""Unit tests for the metrics registry and sweep aggregation."""

import pytest

from repro.obs.metrics import (
    DETERMINISTIC_CELL_COUNTERS,
    Histogram,
    MetricsRegistry,
    ThroughputMeter,
    aggregate_records,
    cell_metrics,
    reuse_totals,
)
from repro.sim.stats import SimStats


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.counter("cells").inc()
    reg.counter("cells").inc(4)
    for v in (2.0, 6.0, 4.0):
        reg.histogram("wall").observe(v)
    assert reg.counters == {"cells": 5}
    hist = reg.histograms["wall"]
    assert hist.count == 3
    assert hist.min == 2.0
    assert hist.max == 6.0
    assert hist.mean == pytest.approx(4.0)


def test_histogram_empty_edge():
    hist = Histogram()
    assert hist.mean == 0.0
    assert hist.to_dict() == {
        "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
    }
    assert hist.render() == "n=0"


def test_registry_render_lists_everything():
    reg = MetricsRegistry()
    reg.counter("cells_ok").inc(12)
    reg.histogram("cell_wall_s").observe(0.25)
    text = reg.render("sweep metrics:")
    assert "sweep metrics:" in text
    assert "cells_ok" in text
    assert "12" in text
    assert "cell_wall_s" in text


# ----------------------------------------------------------------------
# Cell metrics and ledger aggregation
# ----------------------------------------------------------------------
def test_cell_metrics_block_shape():
    stats = SimStats()
    stats.cycles = 100
    stats.dispatches = 40
    stats.events_processed = 500
    stats.record_message("operand", "pod", 1)
    block = cell_metrics(stats, 0.5, 16, 1024)
    assert block["events"] == 500
    assert block["events_per_s"] == pytest.approx(1000.0)
    assert block["sim_cycles"] == 100
    assert block["dispatches"] == 40
    assert block["messages"] == 1
    assert block["wall_s"] == pytest.approx(0.5)
    assert (block["l1_fit_sets"], block["l2_fit_sets"]) == (16, 1024)


def test_cell_metrics_zero_wall_clock():
    block = cell_metrics(SimStats(), 0.0, 0, 0)
    assert block["events_per_s"] == 0.0


def fake_record(status="ok", retries=0, metrics=None, failure=None):
    record = {"status": status, "retries": retries}
    if metrics is not None:
        record["metrics"] = metrics
    if failure:
        record["failure_class"] = failure
    return record


def test_aggregate_records_counts_and_histograms():
    records = [
        fake_record(metrics={
            "wall_s": 0.5, "events": 100, "events_per_s": 200.0,
            "sim_cycles": 50, "dispatches": 20, "messages": 30,
        }),
        fake_record(metrics={
            "wall_s": 1.5, "events": 300, "events_per_s": 200.0,
            "sim_cycles": 150, "dispatches": 60, "messages": 90,
        }),
        fake_record(status="failed", retries=2,
                    failure="WatchdogTimeout",
                    metrics={"wall_s": 9.0}),
    ]
    reg = aggregate_records(records)
    counters = reg.counters
    assert counters["cells_ok"] == 2
    assert counters["cells_failed"] == 1
    assert counters["cells_total"] == 3
    assert counters["retries"] == 2
    assert counters["failures_WatchdogTimeout"] == 1
    assert counters["events"] == 400
    assert counters["sim_cycles"] == 200
    assert counters["dispatches"] == 80
    assert counters["messages"] == 120
    wall = reg.histograms["cell_wall_s"]
    assert wall.count == 3  # failed cells still account their wall time
    assert wall.max == 9.0
    assert reg.histograms["cell_events_per_s"].count == 2


def test_aggregate_tolerates_pre_metrics_records():
    reg = aggregate_records([{"status": "ok"}])
    assert reg.counters["cells_ok"] == 1
    assert "cell_wall_s" not in reg.histograms


def test_deterministic_counters_exclude_wall_clock():
    reg = aggregate_records([fake_record(metrics={
        "wall_s": 0.5, "events": 10, "events_per_s": 20.0,
        "sim_cycles": 5, "dispatches": 2, "messages": 3,
        "l1_evictions": 1, "l2_evictions": 0,
    })])
    det = reg.counters
    for key in DETERMINISTIC_CELL_COUNTERS:
        assert key in det
    assert "wall_s" not in det
    assert "events_per_s" not in det
    assert all(isinstance(v, int) for v in det.values())


def test_reuse_totals_count_certifiers_with_larger_caches():
    """``from_larger`` reads each reused record's config against its
    ``reused_from`` record's: larger at either level counts."""
    def record(l1_kb, l2_mb, source=None, wall_s=0.0):
        rec = {"status": "ok", "metrics": {"wall_s": wall_s},
               "spec": {"config": {"l1_kb": l1_kb, "l2_mb": l2_mb}}}
        if source is not None:
            rec["reused_from"] = source
        return rec

    records = {
        "a": record(8, 1, wall_s=0.25),
        "b": record(16, 4, wall_s=0.5),
        "up": record(8, 2, source="a"),
        "l1_down": record(8, 4, source="b"),
        "l2_down": record(16, 2, source="b"),
        "mixed": record(32, 2, source="b"),
    }
    assert reuse_totals(records) == {
        "cells": 4, "from_larger": 3, "certifier_wall_s": 1.75,
    }


# ----------------------------------------------------------------------
# Throughput / ETA
# ----------------------------------------------------------------------
def test_throughput_meter_rate_and_eta():
    now = [100.0]
    meter = ThroughputMeter(total=10, clock=lambda: now[0])
    assert meter.eta_s() is None  # nothing done yet
    now[0] = 102.0
    meter.note(4)
    assert meter.rate() == pytest.approx(2.0)
    assert meter.eta_s() == pytest.approx(3.0)  # 6 left at 2/s
    text = meter.render()
    assert "4/10" in text
    assert "ETA" in text


def test_throughput_meter_without_total():
    now = [0.0]
    meter = ThroughputMeter(clock=lambda: now[0])
    now[0] = 2.0
    meter.note()
    assert meter.eta_s() is None
    assert "ETA" not in meter.render()
