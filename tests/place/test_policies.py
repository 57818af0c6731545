"""Tests for alternative placement policies."""

import pytest

from repro.core.config import BASELINE, WaveScalarConfig
from repro.place import (
    POLICIES,
    edge_locality,
    place_with_policy,
)
from repro.place.policies import _place_random
from repro.sim.engine import Engine

from ..conftest import build_counted_sum, build_threaded_sums


@pytest.mark.parametrize("policy", POLICIES)
def test_every_policy_produces_complete_placement(policy):
    graph, _ = build_threaded_sums(3, 4)
    config = WaveScalarConfig(clusters=4)
    placement = place_with_policy(graph, config, policy)
    assert set(placement.pe_of) == {i.inst_id for i in graph.instructions}
    for pe, ids in placement.assigned.items():
        assert 0 <= pe < config.total_pes
        slots = [placement.slot_of[i] for i in ids]
        assert slots == list(range(len(ids)))


@pytest.mark.parametrize("policy", POLICIES)
def test_every_policy_executes_correctly(policy):
    graph, expected = build_threaded_sums(2, 4)
    config = WaveScalarConfig(clusters=2, domains_per_cluster=4)
    placement = place_with_policy(graph, config, policy)
    stats = Engine(graph, config, placement).run()
    assert stats.output_values() == [expected]


def test_unknown_policy_rejected():
    graph, _ = build_counted_sum(4)
    with pytest.raises(ValueError, match="unknown placement policy"):
        place_with_policy(graph, BASELINE, "clown")


def test_snake_matches_default_place():
    from repro.place import place

    graph, _ = build_counted_sum(6)
    a = place(graph, BASELINE)
    b = place_with_policy(graph, BASELINE, "snake")
    assert a.pe_of == b.pe_of


def test_dense_uses_fewer_pes_than_snake():
    graph, _ = build_counted_sum(10)
    snake = place_with_policy(graph, BASELINE, "snake")
    dense = place_with_policy(graph, BASELINE, "dense")
    assert dense.used_pes() <= snake.used_pes()
    assert dense.max_occupancy() >= snake.max_occupancy()


def test_whole_chip_random_destroys_isolation():
    graph, _ = build_threaded_sums(4, 4)
    config = WaveScalarConfig(clusters=4)
    isolated = _place_random(graph, config, 3, isolate_threads=True)
    scattered = _place_random(graph, config, 3, isolate_threads=False)
    loc_iso = edge_locality(graph, isolated, config)
    loc_scat = edge_locality(graph, scattered, config)
    assert loc_iso.within_cluster_fraction() > 0.9
    assert loc_scat.within_cluster_fraction() < 0.7


def test_random_is_seed_deterministic():
    graph, _ = build_counted_sum(8)
    a = _place_random(graph, BASELINE, 7, isolate_threads=True)
    b = _place_random(graph, BASELINE, 7, isolate_threads=True)
    c = _place_random(graph, BASELINE, 8, isolate_threads=True)
    assert a.pe_of == b.pe_of
    assert a.pe_of != c.pe_of
