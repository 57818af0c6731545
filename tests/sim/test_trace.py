"""Tests for the execution tracer."""

import inspect
import re

import pytest

import repro.sim.engine as engine_module
from repro.core.config import BASELINE
from repro.lang import GraphBuilder
from repro.place.snake import place
from repro.sim.engine import Engine
from repro.sim.trace import KINDS, Trace, TraceEvent, summarize

from ..conftest import build_array_sum


def run_traced(graph, config=BASELINE):
    engine = Engine(graph, config, place(graph, config))
    engine.trace = Trace()
    stats = engine.run()
    return engine.trace, stats


def chain_graph(length=4):
    b = GraphBuilder("chain")
    t = b.entry(5)
    one = b.const(1, t)
    v = t
    for _ in range(length):
        v = b.add(v, one)
    b.output(v)
    return b.finalize()


def test_trace_captures_pipeline_stages():
    trace, stats = run_traced(chain_graph())
    kinds = summarize(trace.events)
    for kind in ("input", "match", "dispatch", "execute", "output"):
        assert kinds.get(kind, 0) > 0, kind
    # Every dispatch has a matching execute.
    assert kinds["dispatch"] == kinds["execute"]


def test_trace_dispatch_counts_match_stats():
    trace, stats = run_traced(chain_graph())
    assert len(trace.filter(kind="dispatch")) == stats.dispatches


def test_back_to_back_dependent_execution():
    """The appendix's Figure 9 behaviour: dependent instructions on
    one pod dispatch on consecutive cycles (speculative fire reading
    the result through the bypass during EXECUTE)."""
    trace, _ = run_traced(chain_graph(6))
    total_b2b = sum(
        trace.back_to_back_pairs(pod=pod) for pod in trace.pods()
    )
    assert total_b2b >= 1


def test_trace_filters():
    trace, _ = run_traced(chain_graph())
    all_events = len(trace.events)
    assert len(trace.filter()) == all_events
    some_pe = trace.events[0].pe
    assert 0 < len(trace.filter(pe=some_pe)) <= all_events
    assert trace.filter(kind="nonexistent") == []
    late = trace.filter(since=10)
    assert all(e.cycle >= 10 for e in late)


def test_trace_memory_events():
    graph, _ = build_array_sum([1, 2, 3], k=2)
    trace, _ = run_traced(graph)
    kinds = summarize(trace.events)
    assert kinds.get("mem_req", 0) > 0
    assert kinds.get("mem_done", 0) > 0


def test_trace_limit_drops_excess():
    graph, _ = build_array_sum(list(range(20)), k=4)
    engine = Engine(graph, BASELINE, place(graph, BASELINE))
    engine.trace = Trace(limit=50)
    engine.run()
    assert len(engine.trace.events) == 50
    assert engine.trace.dropped > 0
    assert "dropped" in engine.trace.render()


def test_render_contains_columns():
    trace, _ = run_traced(chain_graph(2))
    text = trace.render(kind="dispatch")
    assert "dispatch" in text
    assert "cycle" in text


def test_trace_event_render():
    e = TraceEvent(12, "dispatch", 3, 7, 0, 2, "ADD")
    line = e.render()
    assert "12" in line and "pe3" in line and "i7" in line and "ADD" in line


def test_instruction_timeline_ordered():
    trace, _ = run_traced(chain_graph())
    inst = trace.filter(kind="dispatch")[0].inst
    timeline = trace.instruction_timeline(inst)
    cycles = [e.cycle for e in timeline]
    assert cycles == sorted(cycles)


def emitted_kinds():
    """Every kind literal the engine source passes to ``trace.emit``."""
    source = inspect.getsource(engine_module)
    return set(re.findall(r'trace\.emit\(\s*[^,]+,\s*"(\w+)"', source))


def test_kinds_registry_round_trips_with_engine():
    """The KINDS registry and the engine's emission sites can never
    drift apart again: every emitted kind is registered, and every
    registered kind has an emission site."""
    emitted = emitted_kinds()
    assert emitted, "source scan found no trace.emit sites"
    assert emitted - set(KINDS) == set(), \
        "engine emits kinds missing from the KINDS registry"
    assert set(KINDS) - emitted == set(), \
        "KINDS registers kinds the engine never emits"


def test_same_cycle_events_sort_in_pipeline_order():
    """Regression for the incomplete sort map: every registered kind
    has a stable pipeline position, so same-cycle events never shuffle
    by emission order."""
    trace = Trace()
    # Emitted deliberately out of pipeline order, all on cycle 7.
    trace.emit(7, "mem_req", 0, 1, 0, 0)
    trace.emit(7, "output", 0, 2, 0, 0)
    trace.emit(7, "mem_done", -1, 3, 0, 0)
    trace.emit(7, "dispatch", 0, 4, 0, 0)
    assert [e.kind for e in trace.filter()] == [
        "dispatch", "output", "mem_req", "mem_done",
    ]


def test_unknown_kinds_sort_after_registered_ones():
    trace = Trace()
    trace.emit(3, "custom_probe", 0, 1, 0, 0)
    trace.emit(3, "output", 0, 2, 0, 0)
    kinds = [e.kind for e in trace.filter()]
    assert kinds == ["output", "custom_probe"]


def test_drop_oldest_keeps_the_end_of_the_run():
    trace = Trace(limit=3, policy="drop_oldest")
    for cycle in range(10):
        trace.emit(cycle, "input", 0, cycle, 0, 0)
    assert [e.cycle for e in trace.events] == [7, 8, 9]
    assert trace.dropped == 7
    assert "dropped" in trace.render()


def test_drop_newest_keeps_the_start_of_the_run():
    trace = Trace(limit=3, policy="drop_newest")
    for cycle in range(10):
        trace.emit(cycle, "input", 0, cycle, 0, 0)
    assert [e.cycle for e in trace.events] == [0, 1, 2]
    assert trace.dropped == 7


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="drop_newest"):
        Trace(policy="keep_everything")


def test_kinds_seen_reports_recorded_kinds():
    trace, _ = run_traced(chain_graph())
    seen = trace.kinds_seen()
    assert {"input", "dispatch", "execute"} <= seen
    assert seen <= set(KINDS)


def test_tracing_does_not_change_timing():
    graph = chain_graph(5)
    plain = Engine(graph, BASELINE, place(graph, BASELINE)).run()
    traced, stats = run_traced(chain_graph(5))
    assert stats.cycles == plain.cycles
    assert stats.dispatches == plain.dispatches
