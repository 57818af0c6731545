"""Tests for the phase profiler."""

import time

import pytest

from repro.core.config import BASELINE
from repro.obs.profile import PHASES, PhaseProfile
from repro.place.snake import place
from repro.sim.engine import Engine

from ..conftest import build_array_sum


def test_nested_regions_attribute_self_time():
    prof = PhaseProfile()
    prof.push("input")
    prof.push("match")
    prof.pop()
    prof.pop()
    # Parent self-time excludes the child span: the two phases are
    # disjoint, so their sum equals the outer wall time (within the
    # accounting, exactly).
    assert prof.ns["match"] > 0
    assert prof.ns["input"] >= 0
    assert prof.total_ns == prof.ns["input"] + prof.ns["match"]
    assert prof.calls == {
        **{phase: 0 for phase in PHASES}, "input": 1, "match": 1,
    }


def test_fractions_sum_to_one():
    prof = PhaseProfile()
    for phase in ("input", "dispatch", "execute"):
        prof.push(phase)
        prof.pop()
    assert sum(prof.fractions().values()) == pytest.approx(1.0)


def test_empty_profile_renders_and_serialises():
    prof = PhaseProfile()
    assert prof.total_ns == 0
    assert all(v == 0.0 for v in prof.fractions().values())
    assert prof.to_dict()["total_ns"] == 0
    assert "phase" in prof.render()


def test_engine_attributes_hot_loop_phases():
    graph, _ = build_array_sum([1, 2, 3, 4], k=2)
    engine = Engine(graph, BASELINE, place(graph, BASELINE))
    engine.profile = PhaseProfile()
    started = time.perf_counter_ns()
    stats = engine.run()
    wall_ns = time.perf_counter_ns() - started
    prof = engine.profile
    assert prof._stack == []  # every push was popped
    # Self time never double counts: a nested phase's time is taken
    # out of its parent's, so the total cannot exceed the run's wall.
    assert 0 < prof.total_ns <= wall_ns
    # The pipeline phases the workload must exercise all got time.
    for phase in ("input", "match", "dispatch", "execute", "deliver",
                  "memory"):
        assert prof.calls[phase] > 0, phase
        assert prof.ns[phase] > 0, phase
    # ALU evaluations are a subset of dispatches (memory half-ops
    # take the store-buffer path instead of evaluate()).
    assert 0 < prof.calls["execute"] <= stats.dispatches
    text = prof.render()
    assert "dispatch" in text and "total" in text


def _installed_hooks(engine) -> list:
    """Anything shadowing a component method on the engine's parts:
    the hot path serves hooks from tests on locals, so there must
    never be any."""
    return [
        (type(part).__name__, name)
        for part in (engine.network, *engine.matching)
        for name, value in vars(part).items()
        if callable(value)
    ]


def test_disabled_profiling_leaves_no_shadows(monkeypatch):
    """With no profile attached the run makes no PhaseProfile call at
    all, and nothing is installed on the engine's tables or network."""
    calls = []
    monkeypatch.setattr(PhaseProfile, "push",
                        lambda self, phase: calls.append(phase))
    monkeypatch.setattr(PhaseProfile, "pop",
                        lambda self: calls.append("pop"))
    graph, _ = build_array_sum([1, 2, 3], k=2)
    engine = Engine(graph, BASELINE, place(graph, BASELINE))
    engine.run()
    assert calls == []
    assert engine.profile is None
    assert _installed_hooks(engine) == []


def test_profile_hooks_uninstalled_after_profiled_run():
    """A profiled run leaves the same nothing behind, and every span
    it opened is closed."""
    graph, _ = build_array_sum([1, 2, 3], k=2)
    engine = Engine(graph, BASELINE, place(graph, BASELINE))
    engine.profile = PhaseProfile()
    engine.run()
    assert engine.profile._stack == []
    assert _installed_hooks(engine) == []


def test_profiling_does_not_change_results():
    graph, _ = build_array_sum([1, 2, 3, 4], k=2)
    plain = Engine(graph, BASELINE, place(graph, BASELINE)).run()
    engine = Engine(graph, BASELINE, place(graph, BASELINE))
    engine.profile = PhaseProfile()
    profiled = engine.run()
    assert profiled.cycles == plain.cycles
    assert profiled.dispatches == plain.dispatches
    assert profiled.output_values() == plain.output_values()


def test_phase_of_tag_maps_calendar_tags():
    from repro.obs.profile import PHASES, phase_of_tag
    from repro.sim.events import (
        EV_DISPATCH,
        EV_RETIRE,
        EV_SBADDR,
        EV_TOKEN,
        EV_TOKEN_BATCH,
    )

    assert phase_of_tag(EV_TOKEN) == "input"
    assert phase_of_tag(EV_TOKEN_BATCH) == "input"
    assert phase_of_tag(EV_DISPATCH) == "dispatch"
    assert phase_of_tag(EV_SBADDR) == "memory"
    assert phase_of_tag(EV_RETIRE) == "other"
    assert phase_of_tag(999) == "other"  # foreign tags never raise
    for tag in range(7):
        assert phase_of_tag(tag) in PHASES
