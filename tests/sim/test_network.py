"""Tests for the hierarchical interconnect model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WaveScalarConfig
from repro.sim.network.topology import BandwidthLedger, Interconnect
from repro.sim.stats import SimStats


def make_net(clusters=4, **kw):
    config = WaveScalarConfig(clusters=clusters, **kw)
    stats = SimStats()
    return Interconnect(config, stats), config, stats


# ----------------------------------------------------------------------
# BandwidthLedger
# ----------------------------------------------------------------------
def test_ledger_serialises_per_cycle():
    ledger = BandwidthLedger(1)
    grants = [ledger.reserve(10) for _ in range(4)]
    assert grants == [10, 11, 12, 13]


def test_ledger_respects_width():
    ledger = BandwidthLedger(2)
    grants = [ledger.reserve(0) for _ in range(5)]
    assert grants == [0, 0, 1, 1, 2]


@settings(max_examples=30, deadline=None)
@given(requests=st.lists(st.integers(0, 50), min_size=1, max_size=40),
       width=st.integers(1, 3))
def test_ledger_never_overcommits(requests, width):
    ledger = BandwidthLedger(width)
    grants = [ledger.reserve(r) for r in sorted(requests)]
    from collections import Counter

    per_cycle = Counter(grants)
    assert max(per_cycle.values()) <= width
    for req, grant in zip(sorted(requests), grants):
        assert grant >= req


class _NoScanDict(dict):
    """A dict whose contents may be looked up but never walked."""

    def __iter__(self):
        raise AssertionError("reserve() iterated over its history")

    keys = values = items = __iter__


def test_reserve_never_scans_its_history():
    """A reservation costs the same however many the ledger holds:
    nothing in ``reserve`` may walk ``_used``."""
    ledger = BandwidthLedger(2)
    ledger._used = _NoScanDict()
    grants = [ledger.reserve(i // 2) for i in range(10_000)]
    assert grants == [i // 2 for i in range(10_000)]


@pytest.mark.parametrize("width", (1, 2, 3, 4))
def test_reserve_matches_brute_force_reference(width):
    """Model-based: unsorted requests, far past 4096 entries, against
    a scan for the earliest cycle with a free slot."""
    rng = random.Random(width)
    ledger = BandwidthLedger(width)
    taken = [0] * 21_000
    for _ in range(9_000):
        request = rng.randrange(12_000)
        expected = next(
            t for t in range(request, len(taken)) if taken[t] < width
        )
        taken[expected] += 1
        assert ledger.reserve(request) == expected
    assert len(ledger._used) > 5_000
    assert ledger._used == {
        t: n for t, n in enumerate(taken) if n
    }


# ----------------------------------------------------------------------
# Topology classification
# ----------------------------------------------------------------------
def test_level_between():
    net, config, _ = make_net()
    assert net.level_between(0, 1) == "pod"
    assert net.level_between(4, 4) == "pod"  # self-delivery via bypass
    assert net.level_between(0, 7) == "domain"
    assert net.level_between(0, 8) == "cluster"
    assert net.level_between(0, 32) == "grid"


def test_pods_disabled_splits_pairs():
    net, _, _ = make_net(pods_enabled=False)
    assert net.level_between(0, 1) == "domain"
    assert net.level_between(3, 3) == "pod"  # self-delivery still local


# ----------------------------------------------------------------------
# Latencies (Table 1)
# ----------------------------------------------------------------------
def test_uncontended_latencies_match_table1():
    net, config, _ = make_net()
    assert net.route(0, 1, 0, "operand").latency == config.pod_latency
    assert net.route(2, 6, 0, "operand").latency == config.domain_latency
    assert net.route(16, 24, 0, "operand").latency == config.cluster_latency
    # Neighbour cluster (0 -> 1 in the 2x2 grid): 9 + 1 hop.
    r = net.route(0, 40, 0, "operand")
    assert r.level == "grid"
    assert r.latency == config.intercluster_base + 1
    assert r.hops == 1


def test_grid_latency_grows_with_distance():
    net, config, _ = make_net(clusters=16)
    pes = config.pes_per_cluster
    near = net.route(0, pes * 1, 0, "operand")       # 1 hop
    far = net.route(0, pes * 15, 100, "operand")     # corner to corner
    assert far.hops == config.cluster_distance(0, 15)
    assert far.latency - config.intercluster_base == far.hops


def test_result_bus_contention_queues():
    net, config, _ = make_net()
    first = net.route(0, 4, 0, "operand")
    second = net.route(0, 5, 0, "operand")  # same source PE, same cycle
    assert second.latency == first.latency + 1  # one bus slot later


def test_net_pe_injection_limit():
    """The receiving domain's NET pseudo-PE injects 1 operand/cycle."""
    net, config, _ = make_net()
    latencies = [net.route(8 + i, 0, 0, "operand").latency
                 for i in range(3)]  # three different senders, same target
    assert latencies[1] > latencies[0]
    assert latencies[2] > latencies[1]


def test_mesh_bandwidth_contention():
    net, config, stats = make_net(clusters=4, mesh_bandwidth=1)
    pes = config.pes_per_cluster
    # Many messages over the same link in the same cycle, distinct
    # source PEs so the PE bus is not the bottleneck.
    lat = [net.route(i, pes + i, 0, "operand").latency for i in range(6)]
    assert lat[-1] > lat[0]
    assert stats.mesh_queue_wait_sum > 0


def test_traffic_recorded_by_level_and_kind():
    net, config, stats = make_net()
    net.route(0, 1, 0, "operand")
    net.route(0, 40, 0, "memory")
    assert stats.messages["operand"]["pod"] == 1
    assert stats.messages["memory"]["grid"] == 1
    assert stats.message_count == 2


def test_route_clusters_memory_traffic():
    net, config, stats = make_net()
    same = net.route_clusters(2, 2, 0)
    far = net.route_clusters(0, 3, 0)
    assert same == 1
    assert far >= config.intercluster_base
    assert stats.messages["memory"]["cluster"] == 1
    assert stats.messages["memory"]["grid"] == 1


def test_average_latency_statistics():
    net, config, stats = make_net()
    net.route(0, 1, 0, "operand")
    net.route(0, 2, 0, "operand")
    assert stats.average_message_latency > 0


def test_mesh_routes_are_dimension_ordered():
    """X-then-Y routing: the hop count equals Manhattan distance."""
    net, config, _ = make_net(clusters=16)
    pes = config.pes_per_cluster
    for dst_cluster in (1, 4, 5, 15):
        r = net.route(0, pes * dst_cluster, 1000 + dst_cluster, "operand")
        assert r.hops == config.cluster_distance(0, dst_cluster)


# ----------------------------------------------------------------------
# Static-topology memoisation (hot-path caching)
# ----------------------------------------------------------------------
def test_level_cache_matches_fresh_classification():
    """Memoised level_between answers agree with an unwarmed
    instance for every PE pair, and repeat lookups hit the cache."""
    net, config, _ = make_net(clusters=4)
    fresh, _, _ = make_net(clusters=4)
    pairs = [(s, d) for s in range(config.total_pes)
             for d in range(0, config.total_pes, 7)]
    for src, dst in pairs:
        assert net.level_between(src, dst) == fresh._classify(src, dst)
    # Second pass is answered purely from the cache.
    cached = len(net._level_cache)
    for src, dst in pairs:
        net.level_between(src, dst)
    assert len(net._level_cache) == cached


def test_mesh_path_memoised_per_cluster_pair():
    """The dimension-order link sequence is computed once per
    (src, dst) cluster pair; hops always equal Manhattan distance."""
    net, config, _ = make_net(clusters=16)
    for src in range(config.clusters):
        for dst in range(config.clusters):
            links, hops = net._mesh_path(src, dst)
            assert hops == len(links) == config.cluster_distance(src, dst)
            # The memo returns the identical object on re-query.
            assert net._mesh_path(src, dst) is not None
            assert net._mesh_path(src, dst) == (links, hops)
    assert len(net._mesh_paths) == config.clusters ** 2


def test_cached_routes_still_model_contention():
    """Memoisation covers only the static component: repeated
    messages over the same warm path still queue on bandwidth."""
    net, config, stats = make_net(clusters=4, mesh_bandwidth=1)
    pes = config.pes_per_cluster
    net.route(0, pes, 0, "operand")  # warm the (0 -> 1) path
    lat = [net.route(i, pes + i, 10, "operand").latency for i in range(6)]
    assert len(net._mesh_paths) == 1
    assert lat[-1] > lat[0]
    assert stats.mesh_queue_wait_sum > 0


def test_pod_route_reused_not_rebuilt():
    net, config, _ = make_net()
    first = net.route(0, 1, 0, "operand")
    second = net.route(2, 3, 50, "operand")
    assert first is second  # constant-cost route: one shared object
    assert first.latency == config.pod_latency
