"""Tests for the simulated-annealing placer."""

import pytest

from repro.core.config import WaveScalarConfig
from repro.lang.interp import interpret
from repro.place import anneal, anneal_place, placement_cost
from repro.place.anneal import edge_weights
from repro.place.snake import place
from repro.sim.engine import Engine
from repro.workloads import Scale, get

from ..conftest import build_counted_sum, build_threaded_sums

CFG = WaveScalarConfig(clusters=2, l2_mb=1)


def test_anneal_reduces_static_cost(monkeypatch):
    # BALANCE_WEIGHT=0: the objective is exactly the communication
    # cost, so the annealer must not end worse than it started.
    graph, _ = build_threaded_sums(2, 8)
    profile = interpret(graph).fired_by_inst
    monkeypatch.setattr(anneal, "MOVES", 8000)
    monkeypatch.setattr(anneal, "BALANCE_WEIGHT", 0.0)
    result = anneal_place(graph, CFG, firing_counts=profile)
    assert result.final_cost <= result.initial_cost
    assert result.improvement >= 0.0
    assert result.moves_accepted > 0


def test_balance_term_trades_communication_for_spread(monkeypatch):
    """With the load-balance term on, the pure communication metric may
    end slightly worse -- the objective traded it for dispatch spread."""
    graph, _ = build_threaded_sums(2, 8)
    profile = interpret(graph).fired_by_inst
    monkeypatch.setattr(anneal, "MOVES", 8000)
    result = anneal_place(graph, CFG, firing_counts=profile)
    assert result.final_cost <= 1.5 * result.initial_cost


def test_annealed_placement_is_valid_and_correct(monkeypatch):
    graph, expected = build_threaded_sums(2, 6)
    profile = interpret(graph).fired_by_inst
    monkeypatch.setattr(anneal, "MOVES", 5000)
    result = anneal_place(graph, CFG, firing_counts=profile)
    placement = result.placement
    assert set(placement.pe_of) == {i.inst_id for i in graph.instructions}
    for pe, ids in placement.assigned.items():
        assert len(ids) <= CFG.virtualization
        assert [placement.slot_of[i] for i in ids] == list(range(len(ids)))
    stats = Engine(graph, CFG, placement).run()
    assert stats.output_values() == [expected]


def test_thread_isolation_preserved(monkeypatch):
    graph, _ = build_threaded_sums(3, 5)
    config = WaveScalarConfig(clusters=4)
    monkeypatch.setattr(anneal, "MOVES", 4000)
    result = anneal_place(graph, config)
    owner = graph.thread_of_instruction()
    for inst_id, pe in result.placement.pe_of.items():
        cluster = pe // config.pes_per_cluster
        assert cluster == result.placement.thread_home[owner[inst_id]]


def test_deterministic_given_seed(monkeypatch):
    graph, _ = build_counted_sum(10)
    monkeypatch.setattr(anneal, "MOVES", 3000)
    a = anneal_place(graph, CFG)
    b = anneal_place(graph, CFG)
    assert a.placement.pe_of == b.placement.pe_of
    assert a.final_cost == b.final_cost


def test_cost_function_consistent_with_result(monkeypatch):
    graph, _ = build_counted_sum(8)
    profile = interpret(graph).fired_by_inst
    monkeypatch.setattr(anneal, "MOVES", 2000)
    result = anneal_place(graph, CFG, firing_counts=profile)
    edges = edge_weights(graph, profile)
    recomputed = placement_cost(edges, result.placement.pe_of, CFG)
    assert recomputed == pytest.approx(result.final_cost)


def test_measured_performance_stays_in_snake_ballpark(monkeypatch):
    """The documented negative result: annealing the static objective
    does not beat the snake's measured AIPC, but it must stay within a
    sane band of it (it is optimising *something* real)."""
    w = get("water")
    graph = w.instantiate(Scale.TINY, threads=4)
    config = WaveScalarConfig(clusters=2, l2_mb=1)
    profile = interpret(graph).fired_by_inst
    monkeypatch.setattr(anneal, "MOVES", 8000)
    result = anneal_place(graph, config, firing_counts=profile)
    snake_stats = Engine(graph, config, place(graph, config)).run()
    anneal_stats = Engine(graph, config, result.placement).run()
    assert anneal_stats.output_values() == snake_stats.output_values()
    assert anneal_stats.aipc > 0.6 * snake_stats.aipc
