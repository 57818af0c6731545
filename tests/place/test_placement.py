"""Tests for instruction placement."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BASELINE, WaveScalarConfig
from repro.place import (
    assign_threads_to_clusters,
    chunk_size_for,
    classify_edge,
    dfs_order,
    edge_locality,
    place,
)

from ..conftest import build_counted_sum, build_threaded_sums


def test_dfs_order_is_permutation():
    graph, _ = build_counted_sum(5)
    ids = [i.inst_id for i in graph.instructions]
    order = dfs_order(graph, ids)
    assert sorted(order) == sorted(ids)


def test_dfs_order_keeps_consumers_near_producers():
    graph, _ = build_counted_sum(8)
    ids = [i.inst_id for i in graph.instructions]
    order = dfs_order(graph, ids)
    position = {inst: idx for idx, inst in enumerate(order)}
    # Average producer->consumer distance in the order must beat the
    # random-order expectation (n/3).
    dists = [
        abs(position[src] - position[dest.inst])
        for src, dest in graph.edges()
    ]
    assert sum(dists) / len(dists) < len(ids) / 3


def test_chunk_size_balances_locality_and_spread():
    # Small programs keep the minimum-locality chunk (pods pay off).
    assert chunk_size_for(40, 32, 128) == 16
    # Programs too big to fit at the minimum spread further.
    assert chunk_size_for(32 * 64, 32, 128) == 64
    # Large programs clamp at the virtualization limit.
    assert chunk_size_for(100_000, 32, 128) == 128
    assert chunk_size_for(0, 32, 128) == 1
    # Tiny virtualization caps the chunk below the locality minimum.
    assert chunk_size_for(40, 32, 8) == 8


def test_place_respects_pe_numbering():
    graph, _ = build_counted_sum(6)
    placement = place(graph, BASELINE)
    assert set(placement.pe_of) == {i.inst_id for i in graph.instructions}
    for pe in placement.pe_of.values():
        assert 0 <= pe < BASELINE.total_pes


def test_slots_are_dense_per_pe():
    graph, _ = build_counted_sum(6)
    placement = place(graph, BASELINE)
    for pe, ids in placement.assigned.items():
        slots = [placement.slot_of[i] for i in ids]
        assert slots == list(range(len(ids)))


def test_threads_isolated_to_distinct_clusters():
    graph, _ = build_threaded_sums(4, 4)
    config = WaveScalarConfig(clusters=4)
    placement = place(graph, config)
    homes = placement.thread_home
    assert homes[0] == 0
    # 4 worker threads + master over 4 clusters: every cluster hosts
    # at least one thread, and no cluster hosts three.
    from collections import Counter

    counts = Counter(homes.values())
    assert max(counts.values()) <= 2
    # Worker instructions live in their home cluster.
    owner = graph.thread_of_instruction()
    for inst_id, thread in owner.items():
        cluster = placement.pe_of[inst_id] // config.pes_per_cluster
        assert cluster == homes[thread]


def test_locality_dominated_by_intra_cluster():
    graph, _ = build_counted_sum(10)
    placement = place(graph, BASELINE)
    locality = edge_locality(graph, placement, BASELINE)
    assert locality.within_cluster_fraction() == 1.0  # single cluster
    assert locality.pod > 0  # snake keeps neighbours in pods


def test_classify_edge_levels():
    config = WaveScalarConfig(clusters=4)
    assert classify_edge(0, 0, config) == "pod"
    assert classify_edge(0, 1, config) == "pod"
    assert classify_edge(0, 2, config) == "domain"
    assert classify_edge(0, 8, config) == "cluster"
    assert classify_edge(0, 32, config) == "grid"


def test_average_edge_distance_zero_single_cluster():
    graph, _ = build_counted_sum(5)
    placement = place(graph, BASELINE)
    # One cluster: no static edge crosses the grid.
    assert edge_locality(graph, placement, BASELINE).grid == 0


def test_assign_threads_balances_load():
    config = WaveScalarConfig(clusters=4)
    sizes = {0: 10, 1: 100, 2: 100, 3: 100, 4: 100}
    home = assign_threads_to_clusters(sizes, config)
    loads = [sum(sizes[t] for t in sizes if home[t] == c) for c in range(4)]
    assert max(loads) - min(loads) <= 100


@settings(max_examples=20, deadline=None)
@given(
    n_threads=st.integers(1, 8),
    clusters=st.sampled_from([1, 2, 4, 8]),
)
def test_every_thread_gets_a_home(n_threads, clusters):
    config = WaveScalarConfig(clusters=clusters)
    sizes = {t: 10 * (t + 1) for t in range(n_threads)}
    home = assign_threads_to_clusters(sizes, config)
    assert set(home) == set(sizes)
    for cluster in home.values():
        assert 0 <= cluster < clusters
